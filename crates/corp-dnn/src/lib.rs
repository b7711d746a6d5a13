//! From-scratch deep neural network for CORP's unused-resource prediction.
//!
//! The paper (Section III-A) predicts the amount of temporarily-unused
//! resource of each short-lived job with a multi-layer sigmoid network
//! trained by plain back-propagation:
//!
//! * **feed-forward evaluation** (Eq. 5): `g_i(d) = F(sum_j w_ij * g_j(d-1)
//!   + e_i)` with a sigmoid `F`;
//! * **back-propagation** (Eqs. 6-7): output error `(t - g) * F'(g)`,
//!   propagated down weighted by the connection weights;
//! * **weight update** (Eq. 8): `dw = mu * E_i(d) * g_j(d-1)`.
//!
//! Table II fixes the architecture at `h = 4` layers of `N_n = 50` units.
//! Training runs in epochs until a held-out validation error converges,
//! exactly as Section III-A describes.
//!
//! No ML crates exist in the offline registry, so the numerics here —
//! a minimal dense [`matrix`] layer, [`activation`] functions, the
//! [`network`] forward/backward passes, and the [`train`]ing loop — are all
//! implemented locally and verified against finite-difference gradient
//! checks in the test suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several same-length arrays in lockstep; the
// index-based loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

pub mod activation;
pub mod matrix;
pub mod network;
pub mod predictor;
pub mod train;

pub use activation::Activation;
pub use matrix::Matrix;
pub use network::{LaneScratch, Network, Scratch};
pub use predictor::{
    PredictBatchScratch, PredictScratch, UnusedResourcePredictor, WindowPredictorConfig,
};
pub use train::{TrainConfig, TrainReport, Trainer};
