//! AS paths: ordered segments of AS numbers, with the prepend-removal and
//! position arithmetic the propagation analysis (§4.3) is built on.
//!
//! Paths are stored collector-first: index 0 is the AS closest to the
//! observation point, the last element is the origin AS.

use crate::asn::Asn;
use std::fmt;

/// One segment of an AS path (RFC 4271 §4.3 / 5.1.2).
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum PathSegment {
    /// An ordered AS_SEQUENCE.
    Sequence(Vec<Asn>),
    /// An unordered AS_SET (the result of aggregation); counts as a single
    /// hop for path-length comparison.
    Set(Vec<Asn>),
}

/// Hand-written for `clone_from`: the derived one is `*self = source.clone()`,
/// which frees and reallocates the ASN list, so a scratch path refilled per
/// record (the collector archiver's) would allocate per record.
impl Clone for PathSegment {
    fn clone(&self) -> Self {
        match self {
            PathSegment::Sequence(v) => PathSegment::Sequence(v.clone()),
            PathSegment::Set(v) => PathSegment::Set(v.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (PathSegment::Sequence(v), PathSegment::Sequence(s))
            | (PathSegment::Set(v), PathSegment::Set(s)) => v.clone_from(s),
            (this, _) => *this = source.clone(),
        }
    }
}

impl PathSegment {
    /// Number of hops this segment contributes to path length: the number
    /// of ASes for a sequence, 1 for a non-empty set.
    pub fn hop_count(&self) -> usize {
        match self {
            PathSegment::Sequence(v) => v.len(),
            PathSegment::Set(v) => usize::from(!v.is_empty()),
        }
    }

    /// All ASNs mentioned in the segment.
    pub fn asns(&self) -> &[Asn] {
        match self {
            PathSegment::Sequence(v) | PathSegment::Set(v) => v,
        }
    }
}

/// A full AS path.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    segments: Vec<PathSegment>,
}

/// Hand-written so `clone_from` reaches [`PathSegment::clone_from`] and a
/// reused path keeps its allocations.
impl Clone for AsPath {
    fn clone(&self) -> Self {
        AsPath {
            segments: self.segments.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.segments.clone_from(&source.segments);
    }
}

impl AsPath {
    /// The empty path (as announced by the origin itself over iBGP; in this
    /// workspace it marks a locally originated route).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path with a single AS_SEQUENCE, collector-first order.
    pub fn from_asns<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        AsPath {
            segments: vec![PathSegment::Sequence(asns.into_iter().collect())],
        }
    }

    /// Builds a path from raw segments.
    pub fn from_segments(segments: Vec<PathSegment>) -> Self {
        AsPath { segments }
    }

    /// The underlying segments.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }

    /// True if the path has no ASes at all.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.asns().is_empty())
    }

    /// Iterates over every AS in path order (sets flattened in place).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// The path flattened to a vector, collector-first.
    pub fn to_vec(&self) -> Vec<Asn> {
        self.asns().collect()
    }

    /// The origin AS: the last AS of the final segment, when that segment is
    /// a sequence. Aggregated paths ending in an AS_SET have no unambiguous
    /// origin and yield `None`.
    pub fn origin(&self) -> Option<Asn> {
        match self.segments.last()? {
            PathSegment::Sequence(v) => v.last().copied(),
            PathSegment::Set(_) => None,
        }
    }

    /// The AS nearest the observation point (first AS of the first segment).
    pub fn head(&self) -> Option<Asn> {
        self.segments.first().and_then(|s| match s {
            PathSegment::Sequence(v) => v.first().copied(),
            PathSegment::Set(v) => v.first().copied(),
        })
    }

    /// Path length for BGP best-path comparison: sequences count per-AS,
    /// each set counts 1. Prepending inflates this, which is the entire
    /// point of the prepend community service (Fig 2).
    pub fn hop_count(&self) -> usize {
        self.segments.iter().map(PathSegment::hop_count).sum()
    }

    /// True if `asn` appears anywhere in the path.
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().any(|a| a == asn)
    }

    /// Prepends `asn` `n` times at the head (the action a router performs on
    /// egress, or `n` times at once for the `ASN:×n` community service).
    pub fn prepend(&mut self, asn: Asn, n: usize) {
        if n == 0 {
            return;
        }
        match self.segments.first_mut() {
            // One splice reserves once and shifts the tail once, whatever
            // `n` is.
            Some(PathSegment::Sequence(v)) => {
                v.splice(0..0, std::iter::repeat_n(asn, n));
            }
            _ => {
                self.segments.insert(0, PathSegment::Sequence(vec![asn; n]));
            }
        }
    }

    /// Rebuilds the path in place, one segment per call of `segment`: it
    /// fills the emptied ASN list it is handed and answers with the
    /// segment's constructor (`PathSegment::Sequence` or `PathSegment::Set`),
    /// or `None` once the path is complete. Segment `i` is refilled in the
    /// list the old segment `i` had, so a decoder refilling one scratch
    /// path per record allocates only when a path outgrows the one before
    /// (what [`Clone::clone_from`] does for a copy). On `Err` the path holds
    /// the segments completed before it.
    pub fn refill<E>(
        &mut self,
        mut segment: impl FnMut(&mut Vec<Asn>) -> Result<Option<fn(Vec<Asn>) -> PathSegment>, E>,
    ) -> Result<(), E> {
        let mut n = 0;
        loop {
            let mut asns = match self.segments.get_mut(n) {
                Some(PathSegment::Sequence(v) | PathSegment::Set(v)) => std::mem::take(v),
                None => Vec::new(),
            };
            asns.clear();
            match segment(&mut asns) {
                Ok(Some(kind)) if n < self.segments.len() => self.segments[n] = kind(asns),
                Ok(Some(kind)) => self.segments.push(kind(asns)),
                done => {
                    self.segments.truncate(n);
                    return done.map(|_| ());
                }
            }
            n += 1;
        }
    }

    /// Returns a copy with consecutive duplicate ASes collapsed — the
    /// paper removes AS-path prepending "to not bias the AS path" (§4.1).
    pub fn deprepended(&self) -> AsPath {
        let segments = self
            .segments
            .iter()
            .map(|s| {
                let asns = collapsed(s).collect();
                match s {
                    PathSegment::Sequence(_) => PathSegment::Sequence(asns),
                    PathSegment::Set(_) => PathSegment::Set(asns),
                }
            })
            .collect();
        AsPath { segments }
    }

    /// The ASes of [`deprepended`](Self::deprepended) in path order,
    /// without building the copy.
    pub fn deprepended_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(collapsed)
    }

    /// Position of the first occurrence of `asn` in the *de-prepended*
    /// flattened path, counted from the observation point (0 = nearest).
    ///
    /// This is the quantity behind the propagation-distance ECDFs: a
    /// community conservatively attributed to the AS at position `i` has
    /// been relayed along `i` AS edges, plus one more to reach the monitor.
    pub fn position(&self, asn: Asn) -> Option<usize> {
        self.deprepended_asns().position(|a| a == asn)
    }

    /// True if an AS appears at two non-adjacent positions (a routing loop;
    /// such updates are rejected on import).
    pub fn has_loop(&self) -> bool {
        let flat = self.deprepended().to_vec();
        for (i, a) in flat.iter().enumerate() {
            if flat[i + 1..].contains(a) {
                return true;
            }
        }
        false
    }

    /// Number of unique ASes on the path.
    pub fn unique_as_count(&self) -> usize {
        let mut v = self.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Prepend evidence: every AS that occurs in a consecutive run of
    /// length > 1 inside a SEQUENCE segment, with the run length.
    ///
    /// `[3 3 3 2 1]` yields `(3, 3)`. Passive steering inference (the
    /// paper's §9 future agenda) uses this to tell *which* AS was prepended,
    /// which the de-prepended path no longer shows.
    pub fn prepend_runs(&self) -> impl Iterator<Item = (Asn, usize)> + '_ {
        self.segments
            .iter()
            .filter_map(|seg| match seg {
                PathSegment::Sequence(v) => Some(v.chunk_by(|a, b| a == b)),
                PathSegment::Set(_) => None,
            })
            .flatten()
            .filter(|run| run.len() > 1)
            .map(|run| (run[0], run.len()))
    }
}

/// A segment's ASes with prepending collapsed: a sequence drops each AS
/// that repeats the one before it; a set is kept whole.
fn collapsed(segment: &PathSegment) -> impl Iterator<Item = Asn> + '_ {
    let set = matches!(segment, PathSegment::Set(_));
    let mut last = None;
    segment
        .asns()
        .iter()
        .copied()
        .filter(move |&a| set || last.replace(a) != Some(a))
}

impl fmt::Display for AsPath {
    /// Space-separated presentation, sets in braces: `"3 2 {7,9} 1"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            match seg {
                PathSegment::Sequence(v) => {
                    for a in v {
                        if !first {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", a.get())?;
                        first = false;
                    }
                }
                PathSegment::Set(v) => {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{{")?;
                    for (i, a) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", a.get())?;
                    }
                    write!(f, "}}")?;
                    first = false;
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        AsPath::from_asns(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&n| Asn::new(n)).collect()
    }

    #[test]
    fn prepend_runs_identify_prepended_ases() {
        let p = path(&[3, 3, 3, 2, 1]);
        assert_eq!(p.prepend_runs().collect::<Vec<_>>(), [(Asn::new(3), 3)]);
        let p = path(&[4, 3, 3, 2, 2, 2, 1]);
        assert_eq!(
            p.prepend_runs().collect::<Vec<_>>(),
            [(Asn::new(3), 2), (Asn::new(2), 3)]
        );
        assert_eq!(path(&[3, 2, 1]).prepend_runs().count(), 0);
        assert_eq!(AsPath::empty().prepend_runs().count(), 0);
        // non-adjacent repeats (a loop) are not prepend runs
        let p = path(&[3, 2, 3, 1]);
        assert_eq!(p.prepend_runs().count(), 0);
    }

    fn path(v: &[u32]) -> AsPath {
        AsPath::from_asns(asns(v))
    }

    #[test]
    fn clone_from_equals_clone_and_keeps_the_allocation() {
        let mut scratch = path(&[9, 8, 7, 6, 5]);
        let buffer = scratch.segments()[0].asns().as_ptr();
        let short = path(&[3, 2]);
        scratch.clone_from(&short);
        assert_eq!(scratch, short);
        assert_eq!(
            scratch.segments()[0].asns().as_ptr(),
            buffer,
            "a path that fits is copied into the buffer already there"
        );
        // Another segment kind, more segments, none at all: still a clone.
        let mixed = AsPath::from_segments(vec![
            PathSegment::Set(asns(&[2, 1])),
            PathSegment::Sequence(asns(&[5])),
        ]);
        scratch.clone_from(&mixed);
        assert_eq!(scratch, mixed);
        scratch.clone_from(&AsPath::empty());
        assert_eq!(scratch, AsPath::empty());
    }

    #[test]
    fn refill_builds_the_segments_it_is_fed_and_keeps_the_allocation() {
        let mut scratch = path(&[9, 8, 7, 6, 5]);
        let buffer = scratch.segments()[0].asns().as_ptr();
        let mut feed = vec![
            (
                PathSegment::Set as fn(Vec<Asn>) -> PathSegment,
                asns(&[2, 1]),
            ),
            (PathSegment::Sequence, asns(&[5])),
        ]
        .into_iter();
        let refilled = scratch.refill(|out| {
            Ok::<_, ()>(feed.next().map(|(kind, list)| {
                out.extend(list);
                kind
            }))
        });
        assert_eq!(refilled, Ok(()));
        let mixed = AsPath::from_segments(vec![
            PathSegment::Set(asns(&[2, 1])),
            PathSegment::Sequence(asns(&[5])),
        ]);
        assert_eq!(scratch, mixed);
        assert_eq!(
            scratch.segments()[0].asns().as_ptr(),
            buffer,
            "segment 0 is refilled in the old segment 0's list"
        );
        // An error keeps the segments completed before it.
        let mut calls = 0;
        let failed = scratch.refill(|out| {
            calls += 1;
            out.push(Asn::new(calls));
            if calls == 2 {
                Err("bad segment")
            } else {
                Ok(Some(PathSegment::Sequence))
            }
        });
        assert_eq!(failed, Err("bad segment"));
        assert_eq!(scratch, path(&[1]));
        assert_eq!(scratch.refill(|_| Ok::<_, ()>(None)), Ok(()));
        assert_eq!(scratch, AsPath::empty());
    }

    #[test]
    fn origin_and_head() {
        let p = path(&[5, 4, 3, 2, 1]);
        assert_eq!(p.origin(), Some(Asn::new(1)));
        assert_eq!(p.head(), Some(Asn::new(5)));
        assert_eq!(AsPath::empty().origin(), None);
        assert_eq!(AsPath::empty().head(), None);
    }

    #[test]
    fn origin_of_aggregated_path_is_ambiguous() {
        let p = AsPath::from_segments(vec![
            PathSegment::Sequence(asns(&[5, 4])),
            PathSegment::Set(asns(&[2, 1])),
        ]);
        assert_eq!(p.origin(), None);
        assert_eq!(p.head(), Some(Asn::new(5)));
    }

    #[test]
    fn hop_count_sets_count_one() {
        let p = AsPath::from_segments(vec![
            PathSegment::Sequence(asns(&[5, 4])),
            PathSegment::Set(asns(&[2, 1])),
        ]);
        assert_eq!(p.hop_count(), 3);
        assert_eq!(path(&[1, 2, 3]).hop_count(), 3);
        assert_eq!(AsPath::empty().hop_count(), 0);
    }

    #[test]
    fn prepend_at_head() {
        let mut p = path(&[2, 1]);
        p.prepend(Asn::new(3), 1);
        assert_eq!(p.to_vec(), asns(&[3, 2, 1]));
        p.prepend(Asn::new(3), 3);
        assert_eq!(p.to_vec(), asns(&[3, 3, 3, 3, 2, 1]));
        assert_eq!(p.hop_count(), 6);
        p.prepend(Asn::new(9), 0);
        assert_eq!(p.hop_count(), 6);
    }

    #[test]
    fn prepend_onto_empty_path() {
        let mut p = AsPath::empty();
        p.prepend(Asn::new(7), 2);
        assert_eq!(p.to_vec(), asns(&[7, 7]));
        assert_eq!(p.origin(), Some(Asn::new(7)));
    }

    #[test]
    fn prepend_counts_zero_one_three() {
        for (n, want) in [
            (0, &[2, 1][..]),
            (1, &[9, 2, 1][..]),
            (3, &[9, 9, 9, 2, 1][..]),
        ] {
            let mut p = path(&[2, 1]);
            p.prepend(Asn::new(9), n);
            assert_eq!(p.to_vec(), asns(want), "n = {n}");
            assert_eq!(p.segments().len(), 1, "extends the leading sequence");
            // the empty path gains one sequence of exactly `n` copies
            let mut e = AsPath::empty();
            e.prepend(Asn::new(9), n);
            assert_eq!(e.to_vec(), vec![Asn::new(9); n], "empty path, n = {n}");
            assert_eq!(e.segments().len(), usize::from(n > 0));
        }
    }

    #[test]
    fn prepend_before_leading_set_opens_a_new_sequence() {
        let aggregated = || {
            AsPath::from_segments(vec![
                PathSegment::Set(asns(&[4, 3])),
                PathSegment::Sequence(asns(&[2, 1])),
            ])
        };
        let mut p = aggregated();
        p.prepend(Asn::new(9), 0);
        assert_eq!(p, aggregated(), "n = 0 leaves the path untouched");
        p.prepend(Asn::new(9), 3);
        assert_eq!(
            p.segments(),
            &[
                PathSegment::Sequence(asns(&[9, 9, 9])),
                PathSegment::Set(asns(&[4, 3])),
                PathSegment::Sequence(asns(&[2, 1])),
            ],
            "the set is never spliced into"
        );
        assert_eq!(p.hop_count(), 6);
        // a second prepend extends the sequence the first one opened
        p.prepend(Asn::new(8), 1);
        assert_eq!(p.to_vec(), asns(&[8, 9, 9, 9, 4, 3, 2, 1]));
        assert_eq!(p.segments().len(), 3);
    }

    #[test]
    fn deprepended_collapses_consecutive() {
        // The paper's Fig 1: "p1 AS3, AS3, AS3, AS1, AS5" after AS3 prepends.
        let p = path(&[3, 3, 3, 1, 5]);
        assert_eq!(p.deprepended().to_vec(), asns(&[3, 1, 5]));
        // non-consecutive duplicates survive (they're a loop, not prepending)
        let lp = path(&[3, 1, 3]);
        assert_eq!(lp.deprepended().to_vec(), asns(&[3, 1, 3]));
    }

    #[test]
    fn position_counts_from_monitor_side() {
        // AS5 AS4 AS3 AS2 AS1, origin AS1, observed via AS5 (§4.3 example).
        let p = path(&[5, 4, 3, 2, 1]);
        assert_eq!(p.position(Asn::new(5)), Some(0));
        assert_eq!(p.position(Asn::new(3)), Some(2));
        assert_eq!(p.position(Asn::new(1)), Some(4));
        assert_eq!(p.position(Asn::new(99)), None);
        // prepending must not inflate positions
        let p = path(&[5, 4, 4, 4, 3, 2, 1]);
        assert_eq!(p.position(Asn::new(3)), Some(2));
    }

    #[test]
    fn loop_detection() {
        assert!(!path(&[3, 2, 1]).has_loop());
        assert!(!path(&[3, 3, 2, 1]).has_loop(), "prepending is not a loop");
        assert!(path(&[3, 2, 3, 1]).has_loop());
    }

    #[test]
    fn contains_and_unique_count() {
        let p = path(&[3, 3, 2, 1]);
        assert!(p.contains(Asn::new(3)));
        assert!(!p.contains(Asn::new(9)));
        assert_eq!(p.unique_as_count(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(path(&[3, 2, 1]).to_string(), "3 2 1");
        let p = AsPath::from_segments(vec![
            PathSegment::Sequence(asns(&[5, 4])),
            PathSegment::Set(asns(&[2, 1])),
        ]);
        assert_eq!(p.to_string(), "5 4 {2,1}");
        assert_eq!(AsPath::empty().to_string(), "");
    }

    #[test]
    fn from_iterator() {
        let p: AsPath = asns(&[9, 8]).into_iter().collect();
        assert_eq!(p.to_vec(), asns(&[9, 8]));
    }

    #[test]
    fn is_empty_handles_hollow_segments() {
        assert!(AsPath::empty().is_empty());
        assert!(AsPath::from_segments(vec![PathSegment::Sequence(vec![])]).is_empty());
        assert!(!path(&[1]).is_empty());
    }
}
