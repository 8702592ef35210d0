//! Median / percentile helpers for repeat timings.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of `xs`.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn percentile(xs: &[f64], pct: usize) -> f64 {
    let s = sorted(xs);
    s[(s.len() - 1) * pct.min(100) / 100]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 0), 10.0);
        assert_eq!(percentile(&xs, 10), 10.0);
        assert_eq!(percentile(&xs, 50), 30.0);
        assert_eq!(percentile(&xs, 90), 40.0);
        assert_eq!(percentile(&xs, 100), 50.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_a_bug() {
        median(&[]);
    }
}
