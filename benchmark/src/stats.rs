//! The few statistics the benchmark reports.

/// Median of `values` (sorts them). 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// The `q` quantile of ascending `sorted`, linear between neighbours.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(last);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method). Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4, data.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Mean of a histogram of whole-slot waits, where bucket `w` holds the
/// jobs that waited between `w` and `w + 1` slots — `w + 0.5` on average,
/// so the mean is never 0 once a job was placed. 0 for an empty histogram.
pub fn histogram_mean(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    let slots: f64 = (hist.iter().enumerate())
        .map(|(w, &n)| (w as f64 + 0.5) * n as f64)
        .sum();
    slots / (total as f64).max(1.0)
}

/// The `q` quantile of such a histogram, taken linearly inside its
/// bucket, so that it moves smoothly with the distribution. 0 for an
/// empty histogram.
pub fn histogram_quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    let target = q * total as f64;
    let mut below = 0.0;
    for (w, &n) in hist.iter().enumerate() {
        if n > 0 && below + n as f64 >= target {
            return w as f64 + (target - below) / n as f64;
        }
        below += n as f64;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let (q1, q3) = quartiles(&[46., 1., 2., 37., 4., 7., 29., 11., 16., 22.]).unwrap();
        assert_eq!((q1, q3), (3.5, 31.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1., 2.]), Some((0.75, 2.25)));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 90 jobs waited under a slot, 10 between one and two.
        assert!((histogram_quantile(&[90, 10], 0.99) - 1.9).abs() < 1e-12);
        assert!((histogram_quantile(&[100], 0.99) - 0.99).abs() < 1e-12);
        assert_eq!(histogram_quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn histogram_mean_counts_half_a_slot_for_the_arrival_slot() {
        assert_eq!(histogram_mean(&[100]), 0.5);
        assert_eq!(histogram_mean(&[90, 10]), 0.6);
        assert_eq!(histogram_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
