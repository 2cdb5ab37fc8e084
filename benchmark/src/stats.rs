//! Order-statistic estimators over small sample vectors.
//!
//! All of them sort a copy; samples are wall times, never NaN.

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "estimator over an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
    v
}

/// The smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    sorted(samples)[0]
}

/// The largest sample.
pub fn max(samples: &[f64]) -> f64 {
    *sorted(samples).last().expect("non-empty")
}

/// The second-smallest sample (the only one when there is just one). One
/// lucky fast pass does not move it, and neither do all the disturbed ones
/// but the two fastest: on the box this was written on its spread from run
/// to run was within two points of the fastest and the third-fastest
/// pass's, and up to eleven points under the median pass's (README,
/// "Noise").
pub fn second_fastest(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    v[1.min(v.len() - 1)]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 ..= 100`), linearly interpolated between the
/// two nearest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The distance between the first and the third quartile as a share of
/// the median: the spread the driver computes over a set of runs, with the
/// quartiles of Python's `statistics.quantiles(values, n=4)`. Needs two
/// samples.
pub fn spread(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_fastest_ignores_one_lucky_and_many_slow_passes() {
        assert_eq!(second_fastest(&[3.0, 1.0, 9.0, 2.0, 8.0]), 2.0);
        // One lucky pass (0.1) and three disturbed ones change nothing.
        assert_eq!(second_fastest(&[2.0, 0.1, 50.0, 2.1, 60.0, 70.0]), 2.0);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(second_fastest(&twenty), 2.0);
        assert_eq!(second_fastest(&[4.0]), 4.0);
        assert_eq!(second_fastest(&[5.0, 4.0]), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn spread_uses_the_quartiles_python_computes() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 5.5 / 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(spread(&[16.0, 1.0, 4.0, 2.0, 8.0]), 10.5 / 4.0);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(spread(&[3.0, 5.0]), 3.0 / 4.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn min_and_max() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
    }
}
