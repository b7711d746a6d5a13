//! Radix-2 FFT for PRESS/CloudScale signature detection.
//!
//! CloudScale's underlying predictor (PRESS, Gong et al.) first looks for a
//! repeating *signature* in the resource-usage history by examining the
//! dominant frequency of the signal; only when no strong periodic component
//! exists does it fall back to the Markov-chain predictor in
//! [`crate::markov`]. We implement an in-place iterative Cooley-Tukey FFT
//! over `f64` pairs — no external numerics crates are available offline.

use std::cell::RefCell;

/// A complex number represented as `(re, im)`; kept as a plain tuple struct
/// to stay `Copy` and friendly to auto-vectorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    #[inline]
    pub(crate) fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Squared magnitude `re^2 + im^2`.
    #[inline]
    pub(crate) fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

/// Per-thread FFT state — the twiddle table and the transform buffers — so
/// a call allocates nothing once its size has been seen.
#[derive(Default)]
struct FftScratch {
    /// The twiddles of every butterfly stage up to the largest size seen:
    /// the stage of half-width `h` holds `w^0 .. w^(h-1)` of its `wlen` at
    /// `[h - 1, 2h - 1)`, so a size-`n` transform reads the prefix
    /// `[0, n - 1)`.
    twiddles: Vec<Complex>,
    buf: Vec<Complex>,
    mags: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<FftScratch> = RefCell::default();
}

/// The twiddles of a size-`n` transform, extending `table` by the missing
/// stages. Each stage runs the `w = w * wlen` recurrence the butterflies
/// once ran per chunk, so every entry has the bits that recurrence gave.
fn twiddles(table: &mut Vec<Complex>, n: usize) -> &[Complex] {
    let len = n.saturating_sub(1);
    while table.len() < len {
        let half = table.len() + 1;
        let angle = -2.0 * std::f64::consts::PI / (2 * half) as f64;
        let wlen = Complex::new(angle.cos(), angle.sin());
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..half {
            table.push(w);
            w = w.mul(wlen);
        }
    }
    &table[..len]
}

/// The radix-2 passes over `buf`, reading the twiddles of its size.
fn fft_with(buf: &mut [Complex], twiddles: &[Complex]) {
    let n = buf.len();
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            buf.swap(i, j);
        }
    }

    // Butterfly passes.
    let mut half = 1;
    while half < n {
        let stage = &twiddles[half - 1..2 * half - 1];
        for chunk in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = chunk.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let u = *a;
                let v = b.mul(w);
                *a = u.add(v);
                *b = u.sub(v);
            }
        }
        half <<= 1;
    }
}

impl FftScratch {
    /// The magnitude spectrum of `signal` (non-empty), zero-padded to the
    /// next power of two and mean-centred.
    fn magnitudes(&mut self, signal: &[f64]) -> &[f64] {
        let n = signal.len().next_power_of_two();
        let mean = signal.iter().sum::<f64>() / signal.len() as f64;
        self.buf.clear();
        self.buf
            .extend(signal.iter().map(|&x| Complex::new(x - mean, 0.0)));
        self.buf.resize(n, Complex::new(0.0, 0.0));
        fft_with(&mut self.buf, twiddles(&mut self.twiddles, n));
        self.mags.clear();
        self.mags
            .extend(self.buf.iter().map(|c| c.norm_sq().sqrt()));
        &self.mags
    }
}

/// In-place iterative radix-2 Cooley-Tukey FFT. The twiddles come from a
/// per-thread table built once per size.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
#[cfg(test)]
fn fft_in_place(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    SCRATCH.with(|s| fft_with(buf, twiddles(&mut s.borrow_mut().twiddles, n)));
}

/// Returns the magnitude spectrum of `signal`, zero-padded to the next power
/// of two and mean-centred (the DC component is removed so bin 0 does not
/// drown genuine periodicities).
pub fn fft_magnitudes(signal: &[f64]) -> Vec<f64> {
    if signal.is_empty() {
        return Vec::new();
    }
    SCRATCH.with(|s| s.borrow_mut().magnitudes(signal).to_vec())
}

/// Detects the dominant period (in samples) of `signal`, if one exists.
///
/// Scans the first half of the mean-centred magnitude spectrum and accepts
/// the strongest bin only if it concentrates at least `strength_threshold`
/// of the non-DC spectral energy (PRESS uses a similar dominance test to
/// decide between signature-driven and Markov prediction). Returns `None`
/// for flat, too-short, or aperiodic signals.
pub fn dominant_period(signal: &[f64], strength_threshold: f64) -> Option<usize> {
    if signal.len() < 8 {
        return None;
    }
    SCRATCH.with(|s| {
        period_of(
            s.borrow_mut().magnitudes(signal),
            signal.len(),
            strength_threshold,
        )
    })
}

/// [`dominant_period`]'s test on the magnitude spectrum `mags` of a signal
/// of `len` samples.
fn period_of(mags: &[f64], len: usize, strength_threshold: f64) -> Option<usize> {
    let n = mags.len();
    let half = &mags[1..n / 2];
    let total_energy: f64 = half.iter().map(|m| m * m).sum();
    if total_energy <= f64::EPSILON {
        return None;
    }
    let (best_idx, best_mag) = half
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
    let freq_bin = best_idx + 1;
    let energy_share = best_mag * best_mag / total_energy;
    if energy_share < strength_threshold {
        return None;
    }
    let period = (n as f64 / freq_bin as f64).round() as usize;
    // Periods longer than the observed window are extrapolation, not
    // signature detection.
    if period >= len {
        None
    } else {
        Some(period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_naive(signal: &[Complex]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::new(0.0, 0.0);
                for (t, &x) in signal.iter().enumerate() {
                    let angle = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    acc = acc.add(x.mul(Complex::new(angle.cos(), angle.sin())));
                }
                acc
            })
            .collect()
    }

    /// The FFT before the twiddle table: every chunk of every pass runs
    /// the `w = w * wlen` recurrence from one.
    fn fft_by_recurrence(buf: &mut [Complex]) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let angle = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::new(angle.cos(), angle.sin());
            for chunk in buf.chunks_exact_mut(len) {
                let mut w = Complex::new(1.0, 0.0);
                let (lo, hi) = chunk.split_at_mut(len / 2);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *a;
                    let v = b.mul(w);
                    *a = u.add(v);
                    *b = u.sub(v);
                    w = w.mul(wlen);
                }
            }
            len <<= 1;
        }
    }

    /// `fft_magnitudes` over [`fft_by_recurrence`], allocating as it once did.
    fn magnitudes_by_recurrence(signal: &[f64]) -> Vec<f64> {
        let n = signal.len().next_power_of_two();
        let mean = signal.iter().sum::<f64>() / signal.len() as f64;
        let mut buf: Vec<Complex> = signal
            .iter()
            .map(|&x| Complex::new(x - mean, 0.0))
            .chain(std::iter::repeat(Complex::new(0.0, 0.0)))
            .take(n)
            .collect();
        fft_by_recurrence(&mut buf);
        buf.iter().map(|c| c.norm_sq().sqrt()).collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tabled_fft_equals_the_recurrence_bit_for_bit() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut noise = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 5.0
        };
        // Ascending lengths grow the table stage by stage; descending ones
        // read prefixes of the full table.
        for len in (1..=256usize).chain((1..=256).rev()) {
            let signal: Vec<f64> = (0..len).map(|_| noise()).collect();
            assert_eq!(
                bits(&fft_magnitudes(&signal)),
                bits(&magnitudes_by_recurrence(&signal)),
                "magnitudes of length {len}"
            );
            if len.is_power_of_two() {
                let complex: Vec<Complex> =
                    signal.iter().map(|&re| Complex::new(re, noise())).collect();
                let (mut tabled, mut recurred) = (complex.clone(), complex);
                fft_in_place(&mut tabled);
                fft_by_recurrence(&mut recurred);
                let parts = |c: &[Complex]| -> Vec<u64> {
                    c.iter()
                        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                        .collect()
                };
                assert_eq!(
                    parts(&tabled),
                    parts(&recurred),
                    "transform of length {len}"
                );
            }
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let signal: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin() + 0.3 * i as f64, 0.0))
            .collect();
        let mut fast = signal.clone();
        fft_in_place(&mut fast);
        let slow = dft_naive(&signal);
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!(
                (f.re - s.re).abs() < 1e-9,
                "re mismatch: {} vs {}",
                f.re,
                s.re
            );
            assert!(
                (f.im - s.im).abs() < 1e-9,
                "im mismatch: {} vs {}",
                f.im,
                s.im
            );
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::new(0.0, 0.0); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut buf);
        for c in &buf {
            assert!((c.norm_sq().sqrt() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn fft_rejects_non_power_of_two() {
        let mut buf = vec![Complex::new(0.0, 0.0); 6];
        fft_in_place(&mut buf);
    }

    #[test]
    fn dominant_period_of_pure_sine() {
        // Period-16 sine sampled for 128 points.
        let signal: Vec<f64> = (0..128)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 16.0).sin())
            .collect();
        let period = dominant_period(&signal, 0.5).expect("sine must have a signature");
        assert_eq!(period, 16);
    }

    #[test]
    fn dominant_period_of_square_wave() {
        let signal: Vec<f64> = (0..128)
            .map(|t| if (t / 8) % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let period = dominant_period(&signal, 0.3).expect("square wave is periodic");
        assert_eq!(period, 16);
    }

    #[test]
    fn no_period_in_flat_signal() {
        let signal = vec![5.0; 64];
        assert_eq!(dominant_period(&signal, 0.3), None);
    }

    #[test]
    fn no_period_in_white_noise() {
        // Deterministic pseudo-noise via a simple LCG: energy is spread, so
        // no bin should dominate at a 50% threshold.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let signal: Vec<f64> = (0..256)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        assert_eq!(dominant_period(&signal, 0.5), None);
    }

    #[test]
    fn short_signals_have_no_period() {
        assert_eq!(dominant_period(&[1.0, 2.0, 1.0], 0.1), None);
    }

    #[test]
    fn magnitudes_zero_pad_to_power_of_two() {
        let mags = fft_magnitudes(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(mags.len(), 8);
    }
}
