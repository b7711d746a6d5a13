//! Streaming quantile sketch (Greenwald–Khanna).
//!
//! The serve daemon needs per-request placement-latency percentiles
//! (p50/p95/p99) over streams whose length is unknown up front, without
//! retaining every sample. The GK01 sketch maintains a sorted summary of
//! `O((1/eps) log(eps n))` tuples guaranteeing every rank query is within
//! `eps * n` of exact; it is fully deterministic (no sampling), so two runs
//! that feed the same values in the same order hold byte-identical
//! summaries — the property the serve determinism tests pin.
//!
//! For small streams (up to one compaction threshold) the summary simply
//! holds every sample and queries are exact, which keeps short smoke runs
//! honest.

/// One summary tuple: a value, the gap `g` to the previous tuple's minimum
/// rank, and the rank slack `delta`.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    value: f64,
    g: u64,
    delta: u64,
}

/// A deterministic streaming quantile sketch (Greenwald–Khanna, SIGMOD'01)
/// with `eps`-approximate rank guarantees.
///
/// ```
/// use corp_stats::QuantileSketch;
/// let mut q = QuantileSketch::new(0.01);
/// for i in 0..1000 {
///     q.insert(i as f64);
/// }
/// let p50 = q.query(0.50);
/// assert!(p50.is_some_and(|p50| (p50 - 500.0).abs() <= 20.0));
/// ```
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    eps: f64,
    tuples: Vec<Tuple>,
    count: u64,
    /// Compress every `1/(2 eps)` inserts (the GK batch-compress cadence).
    compress_period: u64,
}

impl QuantileSketch {
    /// Creates a sketch answering rank queries within `eps * n` of exact.
    /// `eps` is clamped to `[1e-4, 0.5]`; `0.005` is a good serving-latency
    /// default (p99 of a 10k-request run is exact to ±50 ranks).
    pub fn new(eps: f64) -> Self {
        let eps = eps.clamp(1e-4, 0.5);
        QuantileSketch {
            eps,
            tuples: Vec::new(),
            count: 0,
            compress_period: (1.0 / (2.0 * eps)).ceil() as u64,
        }
    }

    /// Number of values inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no values have been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current summary size in tuples (diagnostics; bounded by
    /// `O((1/eps) log(eps n))`).
    pub fn summary_len(&self) -> usize {
        self.tuples.len()
    }

    /// Inserts one observation. Non-finite values are ignored — latency
    /// streams must never poison the summary.
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        // Find the insertion point keeping tuples sorted by value; ties
        // insert after existing equals (stable for repeated values).
        let pos = self.tuples.partition_point(|t| t.value <= value);
        let delta = if pos == 0 || pos == self.tuples.len() {
            // New minimum or maximum: its rank is known exactly.
            0
        } else {
            // Interior insert may sit anywhere within the neighbor's band;
            // `2 eps n - 1` keeps the g + delta <= 2 eps n invariant that
            // the query guarantee is proved from.
            ((2.0 * self.eps * self.count as f64).floor() as u64).saturating_sub(1)
        };
        self.tuples.insert(pos, Tuple { value, g: 1, delta });
        self.count += 1;
        if self.count % self.compress_period == 0 {
            self.compress();
        }
    }

    /// Merges adjacent tuples whose combined rank band still fits within
    /// `2 eps n`, keeping the summary logarithmic.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let threshold = (2.0 * self.eps * self.count as f64).floor() as u64;
        // Sweep right-to-left, folding tuple i into its right neighbor when
        // the merged band stays within the threshold. The first and last
        // tuples (exact min/max) are never folded away.
        let mut i = self.tuples.len() - 2;
        while i >= 1 {
            let merged_g = self.tuples[i].g + self.tuples[i + 1].g;
            if merged_g + self.tuples[i + 1].delta <= threshold {
                self.tuples[i + 1].g = merged_g;
                self.tuples.remove(i);
            }
            i -= 1;
        }
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` on an empty
    /// sketch. Monotone in `q`; exact for streams that never compressed.
    pub fn query(&self, q: f64) -> Option<f64> {
        if self.tuples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Target rank, 1-based. The GK rule: return the tuple preceding
        // the first whose max rank exceeds `rank + eps n` — the summary
        // invariant `g + delta <= 2 eps n` then bounds the returned
        // value's true rank within `eps n` of the target.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let slack = (self.eps * self.count as f64).floor() as u64;
        let mut min_rank = 0u64;
        let mut prev = self.tuples[0].value;
        for t in &self.tuples {
            min_rank += t.g;
            if min_rank + t.delta > rank + slack {
                return Some(prev);
            }
            prev = t.value;
        }
        self.tuples.last().map(|t| t.value)
    }

    /// Smallest value inserted (exact).
    pub fn min(&self) -> Option<f64> {
        self.tuples.first().map(|t| t.value)
    }

    /// Largest value inserted (exact).
    pub fn max(&self) -> Option<f64> {
        self.tuples.last().map(|t| t.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_answers_none() {
        let q = QuantileSketch::new(0.01);
        assert!(q.is_empty());
        assert_eq!(q.query(0.5), None);
        assert_eq!(q.min(), None);
        assert_eq!(q.max(), None);
    }

    #[test]
    fn small_streams_are_exact() {
        let mut q = QuantileSketch::new(0.01);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            q.insert(v);
        }
        assert_eq!(q.count(), 5);
        assert_eq!(q.min(), Some(1.0));
        assert_eq!(q.max(), Some(5.0));
        assert_eq!(q.query(0.0), Some(1.0));
        assert_eq!(q.query(1.0), Some(5.0));
        assert_eq!(q.query(0.5), Some(3.0));
    }

    #[test]
    fn large_uniform_stream_within_eps() {
        let eps = 0.01;
        let mut q = QuantileSketch::new(eps);
        let n = 10_000u64;
        // Deterministic shuffle-ish order: stride through the range with a
        // step coprime to n so inserts are far from sorted.
        let stride = 7919u64; // prime, gcd(7919, 10000) = 1
        for i in 0..n {
            q.insert(((i * stride) % n) as f64);
        }
        assert_eq!(q.count(), n);
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let got = q.query(p).unwrap();
            let want = p * n as f64;
            assert!(
                (got - want).abs() <= 2.0 * eps * n as f64,
                "p{p}: got {got}, want ~{want}"
            );
        }
        // Summary stays far below the stream length.
        assert!(
            q.summary_len() < n as usize / 4,
            "summary must compress: {} tuples",
            q.summary_len()
        );
    }

    #[test]
    fn queries_are_monotone_in_q() {
        let mut q = QuantileSketch::new(0.005);
        for i in 0..5000 {
            q.insert(((i * 31) % 5000) as f64);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let v = q.query(i as f64 / 100.0).unwrap();
            assert!(v >= last, "quantiles must be nondecreasing");
            last = v;
        }
    }

    #[test]
    fn nonfinite_inserts_are_ignored() {
        let mut q = QuantileSketch::new(0.01);
        q.insert(f64::NAN);
        q.insert(f64::INFINITY);
        assert!(q.is_empty());
        q.insert(2.0);
        assert_eq!(q.count(), 1);
        assert_eq!(q.query(0.99), Some(2.0));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut q = QuantileSketch::new(0.005);
            for i in 0..20_000u64 {
                q.insert(((i * 104_729) % 20_000) as f64);
            }
            (
                q.summary_len(),
                q.query(0.5).unwrap().to_bits(),
                q.query(0.95).unwrap().to_bits(),
                q.query(0.99).unwrap().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn constant_stream_collapses() {
        let mut q = QuantileSketch::new(0.01);
        for _ in 0..10_000 {
            q.insert(42.0);
        }
        assert_eq!(q.query(0.5), Some(42.0));
        assert_eq!(q.query(0.99), Some(42.0));
        assert!(q.summary_len() < 200);
    }
}
