//! Statistical substrate for the CORP reproduction.
//!
//! This crate collects the numerical building blocks that the CORP scheduler
//! and its baselines (RCCR, CloudScale, DRA) rely on:
//!
//! * [`mean`], [`stddev`], [`percentile`], [`Summary`] — descriptive
//!   statistics of resource-usage series.
//! * [`normal_quantile`] — the standard-normal inverse CDF used for the
//!   `z_{theta/2}` term of CORP's confidence intervals (paper Eq. 18).
//! * [`SimpleExp`] — simple exponential smoothing, the RCCR baseline's
//!   time-series forecaster.
//! * [`MarkovChain`] — a discrete-time Markov-chain predictor, the multi-step
//!   fallback predictor of the CloudScale baseline.
//! * [`dominant_period`] — a radix-2 FFT used for CloudScale/PRESS-style
//!   signature (dominant-period) detection in resource-usage histories.
//! * [`ErrorWindow`], [`PredictionErrorTracker`] — prediction-error bookkeeping: the sliding error windows of
//!   paper Eq. 20 and the empirical `Pr(0 <= delta < eps)` estimate that
//!   feeds the probabilistic preemption gate of Eq. 21.
//! * [`QuantileSketch`] — a deterministic Greenwald–Khanna streaming quantile
//!   sketch, used by the `corp-serve` daemon for placement-latency
//!   percentiles over unbounded request streams.
//!
//! Everything here is deterministic and allocation-conscious; the hot paths
//! (forward smoothing passes, FFT butterflies) operate on slices in place.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several same-length arrays in lockstep; the
// index-based loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

mod descriptive;
mod error;
mod ets;
mod fft;
mod markov;
mod quantile;
mod sketch;

pub use descriptive::{max, mean, min, percentile, stddev, Summary};
pub use error::{ErrorWindow, PredictionErrorTracker};
pub use ets::SimpleExp;
pub use fft::{dominant_period, fft_magnitudes};
pub use markov::MarkovChain;
pub use quantile::{normal_cdf, normal_quantile, z_for_confidence};
pub use sketch::QuantileSketch;
