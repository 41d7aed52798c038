//! Order statistics used by the reports.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile of `values` that still has at least ten samples
/// above it: `(value, percentile, n)`. `None` when there are fewer than
/// eleven samples. Infinite samples (requests never served) sort last,
/// so the tail is infinite when more than ten of them exist.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((v[k], 100.0 * (k + 1) as f64 / n as f64, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(n, 100);
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
        assert!(tail(&v[..10]).is_none());
    }
}
