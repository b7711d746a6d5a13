//! Hidden Markov Model substrate for CORP's fluctuation prediction.
//!
//! Section III-A.1.b of the paper predicts whether the amount of unused
//! resource is about to hit a *peak* or a *valley* with a 3-state HMM:
//!
//! * hidden states `S = {OP, NP, UP}` (over-/normal-/under-provisioning);
//! * observation symbols `V = {peak, center, valley}`, derived by
//!   quantizing the window spread `Delta_j` of the unused-resource series
//!   against thresholds built from its historical min/mean/max;
//! * the standard machinery: forward/backward variables (Eqs. 12-15, with
//!   per-step scaling to avoid underflow on long sequences), Viterbi for
//!   the single best state path (Eq. 16), Baum-Welch re-estimation of
//!   `lambda = (A, B, pi)`, and the next-observation distribution
//!   `E_{P_{T+1}}(k) = sum_j P(q_{T+1} = S_j | q_T) b_j(k)` (Eq. 17).
//!
//! No HMM crate exists in the offline registry; everything here is
//! implemented from Rabiner's tutorial (the paper's own reference \[29\]) and
//! verified against brute-force enumeration in the test suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several same-length arrays in lockstep; the
// index-based loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

mod baum_welch;
mod fluctuation;
mod forward_backward;
mod model;
mod quantize;
mod viterbi;

pub use baum_welch::{baum_welch, BaumWelchReport};
pub use fluctuation::{Correction, FluctuationPredictor, HmmScratch};
pub use forward_backward::{forward_scaled, log_likelihood, state_posteriors, ScaledForward};
pub use model::Hmm;
pub use quantize::{FluctuationSymbol, SpreadQuantizer};
pub use viterbi::{viterbi, ViterbiPath};
