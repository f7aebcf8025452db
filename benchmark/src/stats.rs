//! Order statistics for timing samples: medians, quartiles and the
//! percentile rule of the choosing-metrics guide (a tail percentile is
//! only reported when at least ten samples lie beyond it).

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `p`-quantile (`0 <= p <= 1`) of an ascending slice, linearly
/// interpolated between the two closest ranks.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample set");
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn quantile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// The highest of p99 / p95 / p90 / p75 that `n` samples support, i.e.
/// that leaves at least [`MIN_TAIL_SAMPLES`] samples beyond it; `None`
/// when even p75 does not.
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75].into_iter().find(|&p| n * (100 - p as usize) >= MIN_TAIL_SAMPLES * 100)
}

/// The `pct`-th percentile, refused (`None`) unless the sample count
/// supports it per [`highest_tail_percentile`].
pub fn tail_percentile(values: &[f64], pct: u32) -> Option<f64> {
    let supported = highest_tail_percentile(values.len())?;
    (pct <= supported).then(|| quantile(values, pct as f64 / 100.0))
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
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 15.0, 17.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(highest_tail_percentile(999), Some(95));
        assert_eq!(highest_tail_percentile(1000), Some(99));
        assert_eq!(highest_tail_percentile(100), Some(90));
        assert_eq!(highest_tail_percentile(99), Some(75));
        assert_eq!(highest_tail_percentile(39), None);
        let few: Vec<f64> = (0..120).map(f64::from).collect();
        assert!(tail_percentile(&few, 99).is_none());
        assert!(tail_percentile(&few, 90).is_some());
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail_percentile(&many, 99).unwrap() - 989.01).abs() < 1e-9);
    }
}
