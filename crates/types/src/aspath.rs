//! AS paths: ordered segments of AS numbers, with the prepend-removal and
//! position arithmetic the propagation analysis (§4.3) is built on.
//!
//! Paths are stored collector-first: index 0 is the AS closest to the
//! observation point, the last element is the origin AS.
//!
//! A path has one representation per value. One AS_SEQUENCE of at most
//! [`INLINE`] ASes, the shape of every path the benchmark workloads build,
//! lives inline and allocates nothing; every other shape (no segment at
//! all, AS_SETs, several segments, a longer sequence) is a segment list on
//! the heap. Every constructor and mutator lands in that form, which is
//! what lets `==` tell the two forms apart without looking inside. No
//! path holds a segment without ASes: one that is pushed is dropped, so
//! the AS_PATH codec, which writes nothing for such a segment, carries
//! every value a path can hold.

use crate::asn::Asn;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Most ASes a path holds inline: the longest path any of the four
/// benchmark workloads builds at seeds 2018 and 1809, prepends included
/// (at least 98 % of each workload's paths hold 2 to 6 ASes). At 9 an
/// `AsPath` is 40 bytes; 10 or 11 would take 48 and 12 or 13 take 56, and
/// past 40 `bgpworms_wire::BgpMessage`'s `Update` variant outgrows
/// clippy's `large_enum_variant` bound. A longer path lives on the heap.
pub const INLINE: usize = 9;

/// One segment of an AS path (RFC 4271 §4.3 / 5.1.2), over its ASN list
/// `A`: owned when a path is built from segments, a borrowed slice in
/// [`AsPath::segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSegment<A = Vec<Asn>> {
    /// An ordered AS_SEQUENCE.
    Sequence(A),
    /// An unordered AS_SET (the result of aggregation); counts as a single
    /// hop for path-length comparison.
    Set(A),
}

impl<A> PathSegment<A> {
    /// The same kind of segment over `f` of its list.
    fn map<B>(self, f: impl FnOnce(A) -> B) -> PathSegment<B> {
        match self {
            PathSegment::Sequence(a) => PathSegment::Sequence(f(a)),
            PathSegment::Set(a) => PathSegment::Set(f(a)),
        }
    }

    /// The segment's list, whatever its kind.
    fn into_list(self) -> A {
        match self {
            PathSegment::Sequence(a) | PathSegment::Set(a) => a,
        }
    }
}

impl<A: AsRef<[Asn]>> PathSegment<A> {
    /// Number of hops this segment contributes to path length: the number
    /// of ASes for a sequence, 1 for a non-empty set.
    pub fn hop_count(&self) -> usize {
        match self {
            PathSegment::Sequence(v) => v.as_ref().len(),
            PathSegment::Set(v) => usize::from(!v.as_ref().is_empty()),
        }
    }

    /// All ASNs mentioned in the segment.
    pub fn asns(&self) -> &[Asn] {
        match self {
            PathSegment::Sequence(v) | PathSegment::Set(v) => v.as_ref(),
        }
    }

    /// The segment over a borrowed list.
    fn view(&self) -> PathSegment<&[Asn]> {
        match self {
            PathSegment::Sequence(v) => PathSegment::Sequence(v.as_ref()),
            PathSegment::Set(v) => PathSegment::Set(v.as_ref()),
        }
    }
}

/// A full AS path.
#[derive(Clone, Default)]
pub struct AsPath {
    repr: Repr,
}

/// The two forms of [`AsPath`]; a value has exactly one of them.
#[derive(Clone)]
enum Repr {
    /// One AS_SEQUENCE of the ASes `asns[..len]`, `len` at least 1. The
    /// slots past `len` are never read.
    Inline { len: u8, asns: [Asn; INLINE] },
    /// Every other shape: no segment at all (the empty path), a set,
    /// several segments, or one sequence longer than [`INLINE`].
    Heap(Vec<PathSegment>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Heap(Vec::new())
    }
}

impl Repr {
    /// One AS_SEQUENCE of `asns`, inline if it fits; no segment at all if
    /// `asns` is empty.
    fn sequence(asns: impl IntoIterator<Item = Asn>) -> Repr {
        let mut asns = asns.into_iter();
        let mut inline = [Asn::default(); INLINE];
        let mut len = 0;
        for asn in asns.by_ref() {
            if len == INLINE {
                let mut all = inline.to_vec();
                all.push(asn);
                all.extend(asns);
                return Repr::Heap(vec![PathSegment::Sequence(all)]);
            }
            inline[len] = asn;
            len += 1;
        }
        if len == 0 {
            return Repr::default();
        }
        Repr::Inline {
            len: len as u8,
            asns: inline,
        }
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
            repr: Repr::sequence(asns),
        }
    }

    /// Builds a path from raw segments.
    pub fn from_segments(segments: Vec<PathSegment>) -> Self {
        let mut path = AsPath::empty();
        for segment in segments {
            path.push_segment(segment);
        }
        path
    }

    /// Appends `segment` at the origin end: the one builder behind
    /// [`from_segments`](Self::from_segments), the AS_PATH decoder and
    /// [`deprepended`](Self::deprepended). A segment without ASes is
    /// dropped. A first segment that is a sequence of at most [`INLINE`]
    /// ASes is stored inline; any other moves the path to the heap.
    pub fn push_segment<I: IntoIterator<Item = Asn>>(&mut self, segment: PathSegment<I>) {
        match segment {
            PathSegment::Sequence(asns) if self.is_bare() => self.repr = Repr::sequence(asns),
            segment => {
                let segment: PathSegment = segment.map(|asns| asns.into_iter().collect());
                if !segment.asns().is_empty() {
                    self.heap_mut().push(segment);
                }
            }
        }
    }

    /// True if the path has no segment at all.
    fn is_bare(&self) -> bool {
        matches!(&self.repr, Repr::Heap(segments) if segments.is_empty())
    }

    /// The path's segment list, after moving an inline path to the heap.
    fn heap_mut(&mut self) -> &mut Vec<PathSegment> {
        if let Repr::Inline { len, asns } = &self.repr {
            let sequence = asns[..usize::from(*len)].to_vec();
            self.repr = Repr::Heap(vec![PathSegment::Sequence(sequence)]);
        }
        match &mut self.repr {
            Repr::Heap(segments) => segments,
            Repr::Inline { .. } => unreachable!("moved to the heap above"),
        }
    }

    /// The segments, borrowed.
    pub fn segments(&self) -> impl Iterator<Item = PathSegment<&[Asn]>> + '_ {
        let (inline, heap) = match &self.repr {
            Repr::Inline { len, asns } => {
                let sequence = PathSegment::Sequence(&asns[..usize::from(*len)]);
                (Some(sequence), &[][..])
            }
            Repr::Heap(segments) => (None, segments.as_slice()),
        };
        inline.into_iter().chain(heap.iter().map(PathSegment::view))
    }

    /// True if the path has no ASes at all: no segment, since none is
    /// empty.
    pub fn is_empty(&self) -> bool {
        self.is_bare()
    }

    /// Iterates over every AS in path order (sets flattened in place).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments().flat_map(|s| s.into_list().iter().copied())
    }

    /// The path flattened to a vector, collector-first.
    pub fn to_vec(&self) -> Vec<Asn> {
        self.asns().collect()
    }

    /// The origin AS: the last AS of the final segment, when that segment is
    /// a sequence. Aggregated paths ending in an AS_SET have no unambiguous
    /// origin and yield `None`. This and the three below answer an inline
    /// path directly: `Route::prefer` asks `hop_count` twice per comparison
    /// and admission asks `origin` per import.
    pub fn origin(&self) -> Option<Asn> {
        match &self.repr {
            Repr::Inline { len, asns } => Some(asns[usize::from(*len) - 1]),
            Repr::Heap(segments) => match segments.last()? {
                PathSegment::Sequence(v) => v.last().copied(),
                PathSegment::Set(_) => None,
            },
        }
    }

    /// The AS nearest the observation point (first AS of the first segment).
    pub fn head(&self) -> Option<Asn> {
        match &self.repr {
            Repr::Inline { asns, .. } => Some(asns[0]),
            Repr::Heap(segments) => segments.first()?.asns().first().copied(),
        }
    }

    /// Path length for BGP best-path comparison: sequences count per-AS,
    /// each set counts 1. Prepending inflates this, which is the entire
    /// point of the prepend community service (Fig 2).
    pub fn hop_count(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(segments) => segments.iter().map(PathSegment::hop_count).sum(),
        }
    }

    /// True if `asn` appears anywhere in the path.
    pub fn contains(&self, asn: Asn) -> bool {
        match &self.repr {
            Repr::Inline { len, asns } => asns[..usize::from(*len)].contains(&asn),
            Repr::Heap(segments) => segments.iter().any(|s| s.asns().contains(&asn)),
        }
    }

    /// Prepends `asn` `n` times at the head (the action a router performs on
    /// egress, or `n` times at once for the `ASN:×n` community service).
    /// Within [`INLINE`] the path shifts in place.
    pub fn prepend(&mut self, asn: Asn, n: usize) {
        if n == 0 {
            return;
        }
        if let Repr::Inline { len, asns } = &mut self.repr {
            let old = usize::from(*len);
            if old + n <= INLINE {
                asns.copy_within(..old, n);
                asns[..n].fill(asn);
                *len = (old + n) as u8;
                return;
            }
        }
        if self.is_bare() {
            return self.push_segment(PathSegment::Sequence(std::iter::repeat_n(asn, n)));
        }
        let segments = self.heap_mut();
        match segments.first_mut() {
            // One splice reserves once and shifts the tail once, whatever
            // `n` is.
            Some(PathSegment::Sequence(v)) => {
                v.splice(0..0, std::iter::repeat_n(asn, n));
            }
            _ => segments.insert(0, PathSegment::Sequence(vec![asn; n])),
        }
    }

    /// Returns a copy with consecutive duplicate ASes collapsed — the
    /// paper removes AS-path prepending "to not bias the AS path" (§4.1).
    /// The copy is rebuilt segment by segment, and lands inline if it fits.
    pub fn deprepended(&self) -> AsPath {
        let mut out = AsPath::empty();
        let mut hops = self.hops();
        for segment in self.segments() {
            // This segment's own hops, read off the whole path's stream so
            // a run that crossed into it from the last one is collapsed.
            let n = segment.asns().len();
            out.push_segment(segment.map(|_| {
                (hops.by_ref().take(n))
                    .filter(|&(_, repeat)| !repeat)
                    .map(|(asn, _)| asn)
            }));
        }
        out
    }

    /// The ASes of [`deprepended`](Self::deprepended) in path order,
    /// without building the copy.
    pub fn deprepended_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.hops()
            .filter(|&(_, repeat)| !repeat)
            .map(|(asn, _)| asn)
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

    /// Prepend evidence: every AS that occurs in a consecutive run of
    /// length > 1 inside an AS_SEQUENCE, with the run length.
    ///
    /// `[3 3 3 2 1]` yields `(3, 3)`. Passive steering inference (the
    /// paper's §9 future agenda) uses this to tell *which* AS was prepended,
    /// which the de-prepended path no longer shows.
    pub fn prepend_runs(&self) -> impl Iterator<Item = (Asn, usize)> + '_ {
        let mut hops = self.hops().peekable();
        std::iter::from_fn(move || loop {
            let (asn, _) = hops.next()?;
            let mut run = 1;
            while hops.next_if(|&(_, repeat)| repeat).is_some() {
                run += 1;
            }
            if run > 1 {
                return Some((asn, run));
            }
        })
    }

    /// Every AS in path order, with whether it repeats the AS before it in
    /// the same AS_SEQUENCE. Consecutive sequence segments are one
    /// sequence: the AS_PATH encoder splits a sequence longer than 255 ASes
    /// into several, and a prepend run can cross the split. A set's ASes
    /// never repeat, and a set ends the sequence before it.
    fn hops(&self) -> impl Iterator<Item = (Asn, bool)> + '_ {
        self.segments()
            .flat_map(|segment| {
                let set = matches!(segment, PathSegment::Set(_));
                segment.into_list().iter().map(move |&asn| (asn, set))
            })
            .scan(None, |last, (asn, set)| {
                let repeat = !set && *last == Some(asn);
                *last = (!set).then_some(asn);
                Some((asn, repeat))
            })
    }

    /// True if the path is stored inline.
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

/// Equal exactly when the segment lists are. Each value has one form, so a
/// path inline never equals one on the heap, and an inline path compares
/// its live ASes only.
impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline { len: a, asns: x }, Repr::Inline { len: b, asns: y }) => {
                x[..usize::from(*a)] == y[..usize::from(*b)]
            }
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for AsPath {}

/// Hashes what a `Vec<PathSegment>` of the same segments hashes: the
/// segment count, then each segment.
impl Hash for AsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.segments().count());
        self.segments().for_each(|s| s.hash(state));
    }
}

/// Prints the segment list, as a struct holding it would:
/// `AsPath { segments: [Sequence([Asn(3), Asn(1)])] }`.
impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let segments: Vec<_> = self.segments().collect();
        f.debug_struct("AsPath")
            .field("segments", &segments)
            .finish()
    }
}

impl fmt::Display for AsPath {
    /// Space-separated presentation, sets in braces: `"3 2 {7,9} 1"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in self.segments() {
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
    fn a_run_across_sequence_segments_is_one_run_and_a_set_ends_it() {
        // The AS_PATH encoder splits a sequence longer than 255 ASes.
        let split = AsPath::from_segments(vec![
            PathSegment::Sequence(asns(&[9, 7, 7])),
            PathSegment::Sequence(asns(&[7, 7, 1])),
        ]);
        assert_eq!(
            split.deprepended_asns().collect::<Vec<_>>(),
            asns(&[9, 7, 1])
        );
        assert_eq!(split.deprepended().to_vec(), asns(&[9, 7, 1]));
        assert_eq!(split.prepend_runs().collect::<Vec<_>>(), [(Asn::new(7), 4)]);
        let broken = AsPath::from_segments(vec![
            PathSegment::Sequence(asns(&[7, 7])),
            PathSegment::Set(asns(&[7])),
            PathSegment::Sequence(asns(&[7, 1])),
        ]);
        assert_eq!(broken.deprepended().to_vec(), asns(&[7, 7, 7, 1]));
        assert_eq!(
            broken.prepend_runs().collect::<Vec<_>>(),
            [(Asn::new(7), 2)]
        );
    }

    #[test]
    fn clone_from_equals_clone_in_either_form() {
        let mut scratch = path(&[9, 8, 7, 6, 5]);
        let short = path(&[3, 2]);
        scratch.clone_from(&short);
        assert_eq!(scratch, short);
        assert!(scratch.is_inline());
        // Another segment kind, more segments, none at all: still a clone.
        let mixed = AsPath::from_segments(vec![
            PathSegment::Set(asns(&[2, 1])),
            PathSegment::Sequence(asns(&[5])),
        ]);
        scratch.clone_from(&mixed);
        assert_eq!(scratch, mixed);
        assert!(!scratch.is_inline());
        scratch.clone_from(&AsPath::empty());
        assert_eq!(scratch, AsPath::empty());
    }

    #[test]
    fn push_segment_builds_the_segments_it_is_fed_in_the_canonical_form() {
        let mut built = AsPath::empty();
        built.push_segment(PathSegment::Set(asns(&[2, 1])));
        built.push_segment(PathSegment::Sequence(asns(&[5])));
        let mixed = AsPath::from_segments(vec![
            PathSegment::Set(asns(&[2, 1])),
            PathSegment::Sequence(asns(&[5])),
        ]);
        assert_eq!(built, mixed);
        assert!(!built.is_inline(), "a set lives on the heap");
        // What the AS_PATH decoder builds for one short sequence is inline,
        // and one more segment moves it to the heap with the same ASes.
        let mut decoded = AsPath::empty();
        decoded.push_segment(PathSegment::Sequence(asns(&[3, 2, 1])));
        assert!(decoded.is_inline());
        assert_eq!(decoded, path(&[3, 2, 1]));
        decoded.push_segment(PathSegment::Sequence(asns(&[7])));
        assert!(!decoded.is_inline());
        assert_eq!(decoded.to_vec(), asns(&[3, 2, 1, 7]));
        assert_eq!(decoded.segments().count(), 2);
        // A first sequence longer than `INLINE` is on the heap.
        let long: Vec<u32> = (1..=INLINE as u32 + 1).collect();
        let mut decoded = AsPath::empty();
        decoded.push_segment(PathSegment::Sequence(asns(&long)));
        assert!(!decoded.is_inline());
        assert_eq!(decoded, path(&long));
        assert_eq!(decoded.to_vec(), asns(&long));
    }

    #[test]
    fn prepend_within_inline_capacity_stays_inline_and_crossing_it_moves_to_the_heap() {
        let mut p = path(&[2, 1]);
        p.prepend(Asn::new(9), INLINE - 3);
        assert!(p.is_inline());
        p.prepend(Asn::new(8), 1);
        assert!(p.is_inline(), "exactly `INLINE` ASes fit");
        assert_eq!(p.hop_count(), INLINE);
        let before = p.to_vec();
        p.prepend(Asn::new(7), 1);
        assert!(!p.is_inline());
        assert_eq!(p.to_vec()[1..], before[..]);
        assert_eq!(p.head(), Some(Asn::new(7)));
        assert_eq!(
            p,
            AsPath::from_asns(p.to_vec()),
            "the heap form is canonical"
        );
        // De-prepending brings a long path back inline.
        let short = p.deprepended();
        assert!(short.is_inline());
        assert_eq!(short.to_vec(), asns(&[7, 8, 9, 2, 1]));
    }

    #[test]
    fn an_inline_path_is_56_bytes_at_most() {
        assert!(std::mem::size_of::<AsPath>() <= 56);
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
            assert_eq!(p.segments().count(), 1, "extends the leading sequence");
            // the empty path gains one sequence of exactly `n` copies
            let mut e = AsPath::empty();
            e.prepend(Asn::new(9), n);
            assert_eq!(e.to_vec(), vec![Asn::new(9); n], "empty path, n = {n}");
            assert_eq!(e.segments().count(), usize::from(n > 0));
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
            p.segments().collect::<Vec<_>>(),
            [
                PathSegment::Sequence(&asns(&[9, 9, 9])[..]),
                PathSegment::Set(&asns(&[4, 3])),
                PathSegment::Sequence(&asns(&[2, 1])),
            ],
            "the set is never spliced into"
        );
        assert_eq!(p.hop_count(), 6);
        // a second prepend extends the sequence the first one opened
        p.prepend(Asn::new(8), 1);
        assert_eq!(p.to_vec(), asns(&[8, 9, 9, 9, 4, 3, 2, 1]));
        assert_eq!(p.segments().count(), 3);
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
    fn contains_and_unique_count() {
        let p = path(&[3, 3, 2, 1]);
        assert!(p.contains(Asn::new(3)));
        assert!(!p.contains(Asn::new(9)));
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
        let hollow = AsPath::from_segments(vec![
            PathSegment::Sequence(vec![]),
            PathSegment::Set(vec![]),
        ]);
        assert!(hollow.is_empty());
        assert_eq!(hollow, AsPath::empty());
        assert_eq!(AsPath::from_asns([]), AsPath::empty());
        let mut tail = path(&[3, 2]);
        tail.push_segment(PathSegment::Set(vec![]));
        assert_eq!(tail, path(&[3, 2]));
        assert!(tail.is_inline());
        assert!(!path(&[1]).is_empty());
    }
}
