//! Order statistics over timing samples.
//!
//! Every timing the benchmark reports is a median or a quartile of a stated
//! number of samples, never a best-of-N. The quartiles use the same
//! "exclusive" interpolation as Python's `statistics.quantiles(v, n=4)`, so
//! a spread computed here equals the one the acceptance driver computes.

/// The three quartile cut points of `values` (any order, at least 2 values),
/// by the exclusive method: the i-th cut sits at rank `i·(m+1)/4`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median of `values` (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        0.5 * (v[m / 2 - 1] + v[m / 2])
    }
}

/// 75th percentile: the upper quartile, or the single sample when there is
/// only one (a smoke-sized run).
pub fn p75(values: &[f64]) -> f64 {
    if values.len() < 2 {
        median(values)
    } else {
        quartiles(values)[2]
    }
}

/// Inter-quartile distance as a share of the median — the run-to-run spread
/// the acceptance rule compares against a metric's bound. `None` below two
/// samples, where no spread exists.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let [q1, q2, q3] = quartiles(values);
    Some((q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
    }

    #[test]
    fn median_and_p75_of_pooled_rounds() {
        // Three rounds of chunk samples pooled into one list: the order the
        // rounds arrived in must not matter.
        let rounds = [vec![4.0, 1.0], vec![3.0], vec![2.0, 5.0, 6.0]];
        let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
        assert_eq!(median(&pooled), 3.5);
        assert_eq!(p75(&pooled), 5.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(p75(&[7.0]), 7.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[1.0]), None);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }
}
