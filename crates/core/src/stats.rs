//! Small statistics toolkit: ECDFs, histograms, quantiles — the plumbing
//! under every figure.

use std::collections::BTreeMap;

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds from samples (NaNs are dropped).
    pub fn new<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by nearest-rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// Step points `(x, F(x))` at each distinct sample value.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => out.push((x, f)),
            }
        }
        out
    }
}

/// A counting histogram over ordered keys.
#[derive(Debug, Clone, Default)]
pub struct Histogram<K: Ord> {
    counts: BTreeMap<K, u64>,
    total: u64,
}

impl<K: Ord + Clone> Histogram<K> {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Adds `n` samples of `key`.
    pub fn add_n(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Count for `key`.
    pub fn count(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct keys.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Top-`n` keys by count (ties broken by key order, descending count
    /// first) with their share of the total.
    pub fn top(&self, n: usize) -> Vec<(K, u64, f64)> {
        let mut items: Vec<(K, u64)> = self.counts.iter().map(|(k, &v)| (k.clone(), v)).collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        items
            .into_iter()
            .take(n)
            .map(|(k, v)| {
                let share = if self.total == 0 {
                    0.0
                } else {
                    v as f64 / self.total as f64
                };
                (k, v, share)
            })
            .collect()
    }

    /// Iterates `(key, count)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }
}

/// log10(x + 1) — the transform Fig 6(b) uses to include zero counts on
/// logarithmic axes.
pub fn log1p10(x: u64) -> f64 {
    ((x + 1) as f64).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_fraction_and_quantiles() {
        let e = Ecdf::new([1.0, 2.0, 2.0, 3.0, 10.0]);
        assert_eq!(e.len(), 5);
        assert_eq!(e.fraction_at(0.5), 0.0);
        assert_eq!(e.fraction_at(1.0), 0.2);
        assert_eq!(e.fraction_at(2.0), 0.6);
        assert_eq!(e.fraction_at(100.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(10.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(Ecdf::new([]).quantile(0.5), None);
    }

    #[test]
    fn ecdf_points_are_monotonic_and_deduped() {
        let e = Ecdf::new([3.0, 1.0, 2.0, 2.0]);
        let pts = e.points();
        assert_eq!(pts.len(), 3, "distinct xs only");
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_ignores_nan() {
        let e = Ecdf::new([1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn histogram_top_shares() {
        let mut h = Histogram::new();
        h.add_n("a", 6);
        h.add_n("b", 3);
        h.add_n("c", 1);
        let top = h.top(2);
        assert_eq!(top[0], ("a", 6, 0.6));
        assert_eq!(top[1], ("b", 3, 0.3));
        assert_eq!(h.total(), 10);
        assert_eq!(h.count(&"c"), 1);
        assert_eq!(h.count(&"z"), 0);
    }

    #[test]
    fn histogram_tie_break_is_deterministic() {
        let mut h = Histogram::new();
        h.add_n("b", 5);
        h.add_n("a", 5);
        let top = h.top(2);
        assert_eq!(top[0].0, "a", "ties break by key order");
    }

    #[test]
    fn log_transform_includes_zero() {
        assert_eq!(log1p10(0), 0.0);
        assert!((log1p10(9) - 1.0).abs() < 1e-9);
        assert!((log1p10(99) - 2.0).abs() < 1e-9);
    }
}
