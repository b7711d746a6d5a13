//! Descriptive statistics over resource-usage series.
//!
//! The CORP prediction pipeline repeatedly needs the maximum, mean, and
//! minimum of the unused-resource history (`max_cpu`, `m_cpu`, `min_cpu` in
//! the paper's HMM quantizer), as well as standard deviations of prediction
//! errors for the confidence interval of Eq. 18. These helpers are written
//! against `&[f64]` so callers can pass windows of larger buffers without
//! copying.

/// Arithmetic mean of `xs`. Returns 0.0 for an empty slice (the CORP
/// pipeline treats "no history" as "no unused resource observed").
#[inline]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of `xs` (divides by `n`, not `n-1`): prediction-error
/// windows are treated as the full population of observed errors.
#[inline]
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of `xs`.
#[inline]
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum of `xs`; 0.0 when empty. NaNs are skipped.
#[inline]
pub fn min(xs: &[f64]) -> f64 {
    let v = xs
        .iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::INFINITY, f64::min);
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Maximum of `xs`; 0.0 when empty. NaNs are skipped.
#[inline]
pub fn max(xs: &[f64]) -> f64 {
    let v = xs
        .iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::NEG_INFINITY, f64::max);
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of `xs`.
///
/// Sorts a scratch copy; intended for reporting paths, not per-slot hot
/// loops. Returns 0.0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One-pass summary of a series: count, mean, min, max, and standard
/// deviation (Welford's algorithm, numerically stable for long traces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of accumulated samples.
    pub count: usize,
    /// Running mean.
    pub mean: f64,
    /// Smallest sample seen (`0.0` if none).
    pub min: f64,
    /// Largest sample seen (`0.0` if none).
    pub max: f64,
    m2: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub(crate) fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            m2: 0.0,
        }
    }

    /// Accumulates one sample.
    pub(crate) fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            if x < self.min {
                self.min = x;
            }
            if x > self.max {
                self.max = x;
            }
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Accumulates every sample in `xs`.
    pub(crate) fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Builds a summary from a slice.
    pub fn of(xs: &[f64]) -> Self {
        let mut s = Self::new();
        s.extend(xs);
        s
    }

    /// Population variance of the accumulated samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation of the accumulated samples.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another summary into this one (parallel reduction support:
    /// Chan et al.'s pairwise update, so sweep workers can each keep a local
    /// `Summary` and combine at the end).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_constants() {
        assert!((mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // xs = [1,2,3,4]; mean = 2.5; var = (2.25+0.25+0.25+2.25)/4 = 1.25
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((stddev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_of_singleton_is_zero() {
        assert_eq!(variance(&[42.0]), 0.0);
    }

    #[test]
    fn min_max_basic() {
        let xs = [2.0, -1.0, 7.0, 3.0];
        assert_eq!(min(&xs), -1.0);
        assert_eq!(max(&xs), 7.0);
    }

    #[test]
    fn min_max_empty_default_to_zero() {
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn min_max_skip_nan() {
        let xs = [f64::NAN, 2.0, 5.0];
        assert_eq!(min(&xs), 2.0);
        assert_eq!(max(&xs), 5.0);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((percentile(&xs, 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn summary_matches_batch_functions() {
        let xs = [0.3, 1.7, -2.0, 5.5, 4.4, 0.0];
        let s = Summary::of(&xs);
        assert_eq!(s.count, xs.len());
        assert!((s.mean - mean(&xs)).abs() < 1e-12);
        assert!((s.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(s.min, min(&xs));
        assert_eq!(s.max, max(&xs));
    }

    #[test]
    fn summary_merge_equals_concatenation() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut sa = Summary::of(&a);
        let sb = Summary::of(&b);
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let sc = Summary::of(&all);
        assert_eq!(sa.count, sc.count);
        assert!((sa.mean - sc.mean).abs() < 1e-12);
        assert!((sa.variance() - sc.variance()).abs() < 1e-9);
        assert_eq!(sa.min, sc.min);
        assert_eq!(sa.max, sc.max);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let xs = [1.0, 2.0];
        let mut s = Summary::of(&xs);
        s.merge(&Summary::new());
        assert_eq!(s.count, 2);
        let mut e = Summary::new();
        e.merge(&Summary::of(&xs));
        assert_eq!(e.count, 2);
        assert!((e.mean - 1.5).abs() < 1e-12);
    }
}
