//! Order statistics, computed the way Python's
//! `statistics.quantiles(method="exclusive")` computes them, so the
//! spreads this crate prints match the ones a reader recomputes.

/// The `p`-quantile (`0 < p < 1`) of `values` by the exclusive method:
/// position `p * (n + 1)`, clamped to the sample, linearly interpolated.
/// Returns 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let h = p * (n + 1) as f64;
            let j = (h.floor() as usize).clamp(1, n - 1);
            let frac = (h - j as f64).clamp(0.0, 1.0);
            v[j - 1] + frac * (v[j] - v[j - 1])
        }
    }
}

/// The median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, median, q3)` of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    )
}

/// The mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
