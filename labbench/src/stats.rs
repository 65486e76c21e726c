//! Order statistics over pass times.

/// Median, interpolating between the two middle values of an even
/// count (as Python's `statistics.median`). NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile with at least ten values above its
/// nearest-rank value, and that value. `None` below eleven values.
pub fn highest_tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (1..100u32).rev().find_map(|p| {
        // Nearest rank: the smallest rank covering p% of the values.
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_leaves_ten_values_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_tail_percentile(&v), Some((90, 90.0)));
        assert_eq!(highest_tail_percentile(&v[..10]), None);
        let (p, x) = highest_tail_percentile(&v[..20]).unwrap();
        assert_eq!((p, x), (50, 10.0));
    }
}
