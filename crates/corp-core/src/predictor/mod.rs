//! Unused-resource predictors: CORP's DNN+HMM pipeline and the three
//! baseline forecasters.
//!
//! All VM-level predictors ([`rccr`], [`cloudscale`], [`dra`]) share the
//! same incremental shape: `observe` one slot of a VM's total unused vector
//! and `predict` the vector one window ahead. CORP's predictor
//! ([`corp`]) works per *job* instead, as the paper specifies ("each input
//! data contains CPU utilization of a job at each slot in last `Delta`
//! slots"), and layers the HMM fluctuation correction and the
//! confidence-interval lower bound on top.
//!
//! The baselines keep their per-VM state in a `Vec` indexed by VM id, and
//! CloudScale's and DRA's histories in a `VmWindow` each: a push is O(1)
//! and a read walks the window oldest first, as the shifted `Vec` it
//! replaces did.

mod cloudscale;
mod corp;
mod dra;
mod rccr;

pub use cloudscale::CloudScalePredictor;
pub use corp::{CorpJobPredictor, FallbackCounters, PredictionScratch};
pub use dra::{DraPredictor, ShareClass};
pub use rccr::RccrPredictor;

use corp_sim::ResourceVector;

/// A VM's newest `CAP` observations: pushed in O(1) into storage that never
/// grows past `CAP`, read oldest first.
#[derive(Debug, Clone, Default)]
pub(crate) struct VmWindow<const CAP: usize> {
    buf: Vec<ResourceVector>,
    /// Where the oldest observation sits once the window is full.
    head: usize,
}

impl<const CAP: usize> VmWindow<CAP> {
    /// Appends `v`, evicting the oldest observation once full.
    pub(crate) fn push(&mut self, v: ResourceVector) {
        if self.buf.len() < CAP {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % CAP;
        }
    }

    /// Number of observations held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The observations, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ResourceVector> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }
}

/// `vm`'s entry of a table indexed by VM id, growing the table with
/// `fresh` entries up to it.
pub(crate) fn entry<T>(table: &mut Vec<T>, vm: usize, fresh: impl FnMut() -> T) -> &mut T {
    if vm >= table.len() {
        table.resize_with(vm + 1, fresh);
    }
    &mut table[vm]
}

/// What the windowed cores are tested on against their `HashMap` +
/// `remove(0)` references.
#[cfg(test)]
pub(crate) mod reference_stream {
    use corp_sim::ResourceVector;

    /// The VMs observed: ids with gaps between them.
    pub(crate) const OBSERVED: [usize; 5] = [0, 2, 3, 9, 17];

    /// The VMs asked: every id up to past the last observed one, so most
    /// have never been observed.
    pub(crate) const ASKED: std::ops::Range<usize> = 0..20;

    /// Round `round`'s observation of `vm`: a period-8 sawtooth, noise, a
    /// constant or a sine with noise, by VM.
    pub(crate) fn observation(vm: usize, round: usize) -> ResourceVector {
        let mut x = (vm as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round as u64;
        let mut noise = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let t = round as f64;
        ResourceVector::new(match vm % 4 {
            0 => [(round % 8) as f64, 4.0 - (round % 8) as f64 / 2.0, 1.0],
            1 => [noise() * 10.0, noise() * 5.0, noise()],
            2 => [3.0, 0.0, 7.5],
            _ => [
                5.0 + 4.0 * (t / 3.0).sin() + noise(),
                2.0 + (t / 7.0).cos(),
                noise() * 2.0 - 0.5,
            ],
        })
    }

    /// A resolved outcome's `(actual, predicted)` for `resource` in
    /// `round`: under- and over-estimates of several sizes.
    pub(crate) fn outcome(resource: usize, round: usize) -> (f64, f64) {
        let actual = ((round * 7 + resource * 3) % 11) as f64 / 2.0;
        let predicted = ((round * 5 + resource) % 13) as f64 / 2.0;
        (actual, predicted)
    }

    /// Bit patterns of a forecast, for exact comparison.
    pub(crate) fn bits(v: Option<ResourceVector>) -> Option<[u64; 3]> {
        v.map(|v| v.0.map(f64::to_bits))
    }
}
