//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, start, end and the span that was open when it started. Spans are
//! recorded from the benchmark's own files only (nothing inside the crates
//! is instrumented), kept in memory, and turned into per-layer self times
//! after the pass that produced them has ended. A disabled tracer records
//! nothing and reads no clock, so the end-to-end run pays one branch per
//! call site.

use crate::clock;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, or [`ROOT`] for the pass itself.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
}

/// Name of the span that wraps a whole pass.
pub const ROOT: &str = "pass";

/// The recorder.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(clock::now()),
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span called `name`. `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = origin.elapsed().as_secs_f64();
        out
    }

    /// Hands over the spans recorded so far and starts an empty list.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take() inside an open span");
        std::mem::take(&mut self.spans)
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover, summed over all spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let overlap = span.end.min(parent.end) - span.start.max(parent.start);
            covered[p] += overlap.max(0.0);
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *out.entry(span.name).or_insert(0.0) += (span.end - span.start - covered).max(0.0);
    }
    out
}

/// The layer of a span name: the part before the first `.`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_from_their_direct_parent() {
        // pass [0,10] > a.x [1,9] > b.y [2,5]
        let spans = [
            span(ROOT, 0.0, 10.0, None),
            span("a.x", 1.0, 9.0, Some(0)),
            span("b.y", 2.0, 5.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[ROOT], 2.0);
        assert_eq!(t["a.x"], 5.0);
        assert_eq!(t["b.y"], 3.0);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn siblings_each_reduce_the_parent_and_same_names_add_up() {
        // pass [0,10] > a.x [0,4], a.x [4,7], b.y [8,10]
        let spans = [
            span(ROOT, 0.0, 10.0, None),
            span("a.x", 0.0, 4.0, Some(0)),
            span("a.x", 4.0, 7.0, Some(0)),
            span("b.y", 8.0, 10.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[ROOT], 1.0);
        assert_eq!(t["a.x"], 7.0);
        assert_eq!(t["b.y"], 2.0);
    }

    #[test]
    fn tracer_records_parents_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::on();
        let v = t.span(ROOT, |t| {
            t.span("a.x", |t| t.span("b.y", |_| 7)) + t.span("a.z", |_| 1)
        });
        assert_eq!(v, 8);
        let spans = t.take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                (ROOT, None),
                ("a.x", Some(0)),
                ("b.y", Some(1)),
                ("a.z", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(t.take().is_empty());

        let mut off = Tracer::off();
        assert_eq!(off.span(ROOT, |t| t.span("a.x", |_| 3)), 3);
        assert!(off.take().is_empty());
    }

    #[test]
    fn layer_is_the_prefix_before_the_dot() {
        assert_eq!(layer_of("routesim.run"), "routesim");
        assert_eq!(layer_of(ROOT), ROOT);
    }
}
