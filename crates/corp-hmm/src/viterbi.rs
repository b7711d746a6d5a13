//! Viterbi decoding (paper Eq. 16 context).
//!
//! "In implementation, we use Viterbi algorithm to find the single best
//! state sequence (path) ... maximizing P(Q, O | lambda)." Log-space
//! recursion avoids underflow on long sequences.
//!
//! [`viterbi`] decodes the whole path from an [`Hmm`], taking logarithms
//! as it goes; [`viterbi_last_in`], the per-window prediction path, reads
//! a [`LogHmm`] built once per model instead and returns only the last
//! state. Both run the same recurrence on the same logarithms, so their
//! last states and log-probabilities are bit-identical.

use crate::model::Hmm;

/// `ln p`, with `ln 0 = -inf` (an impossible transition or emission).
fn ln(p: f64) -> f64 {
    if p > 0.0 {
        p.ln()
    } else {
        f64::NEG_INFINITY
    }
}

/// The logarithm of every parameter of an [`Hmm`] — what a Viterbi decode
/// reads, computed once per model instead of once per trellis step.
#[derive(Debug, Clone)]
pub struct LogHmm {
    num_states: usize,
    num_symbols: usize,
    /// `ln pi[i]`.
    ln_pi: Vec<f64>,
    /// `ln a[i][j]`, row-major.
    ln_a: Vec<f64>,
    /// `ln b[j][k]`, row-major.
    ln_b: Vec<f64>,
}

impl LogHmm {
    /// Takes the logarithm of every parameter of `hmm`.
    pub fn new(hmm: &Hmm) -> Self {
        LogHmm {
            num_states: hmm.num_states,
            num_symbols: hmm.num_symbols,
            ln_pi: hmm.pi.iter().map(|&p| ln(p)).collect(),
            ln_a: hmm.a.iter().flatten().map(|&p| ln(p)).collect(),
            ln_b: hmm.b.iter().flatten().map(|&p| ln(p)).collect(),
        }
    }
}

/// Result of Viterbi decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct ViterbiPath {
    /// The most likely state sequence `Q* = q_1* ... q_T*`.
    pub states: Vec<usize>,
    /// `log P(Q*, O | lambda)`.
    pub log_prob: f64,
}

/// Finds the single best state sequence for `obs` under `hmm`.
///
/// # Panics
///
/// Panics if `obs` is empty or contains out-of-range symbols.
pub fn viterbi(hmm: &Hmm, obs: &[usize]) -> ViterbiPath {
    assert!(!obs.is_empty(), "observation sequence must be non-empty");
    hmm.check_observations(obs);
    let h = hmm.num_states;
    let t_len = obs.len();

    // delta[t][i]: best log-prob of any path ending in state i at t.
    let mut delta = vec![vec![f64::NEG_INFINITY; h]; t_len];
    let mut psi = vec![vec![0usize; h]; t_len];

    for i in 0..h {
        delta[0][i] = ln(hmm.pi[i]) + ln(hmm.b[i][obs[0]]);
    }
    for t in 1..t_len {
        for j in 0..h {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0;
            for i in 0..h {
                let cand = delta[t - 1][i] + ln(hmm.a[i][j]);
                if cand > best {
                    best = cand;
                    arg = i;
                }
            }
            delta[t][j] = best + ln(hmm.b[j][obs[t]]);
            psi[t][j] = arg;
        }
    }

    let (mut last, mut log_prob) = (0usize, f64::NEG_INFINITY);
    for (i, &d) in delta[t_len - 1].iter().enumerate() {
        if d > log_prob {
            log_prob = d;
            last = i;
        }
    }
    let mut states = vec![0usize; t_len];
    states[t_len - 1] = last;
    for t in (0..t_len - 1).rev() {
        states[t] = psi[t + 1][states[t + 1]];
    }
    ViterbiPath { states, log_prob }
}

/// Reusable buffers for [`viterbi_last_in`]: two rolling rows of the
/// `delta` trellis. Cleared and refilled on every call — reuse never
/// changes a result, it only skips the per-call allocations.
#[derive(Debug, Clone, Default)]
pub struct ViterbiScratch {
    prev: Vec<f64>,
    cur: Vec<f64>,
}

impl ViterbiScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        ViterbiScratch::default()
    }
}

/// The final state of the single best path and `log P(Q*, O | lambda)`,
/// computed from the model's logarithms through caller-provided scratch
/// without allocating.
///
/// Runs the same log-space recurrence as [`viterbi`] in the same
/// arithmetic order on the same logarithms, so the returned pair is
/// bit-identical to the last state and `log_prob` of [`viterbi`]'s path;
/// it keeps only the rolling `delta` rows instead of the full trellis (the
/// last state is the arg-max of the final row — no backtrack needed).
///
/// Symbols are not range-checked outside debug builds: callers pass
/// quantizer output, which is always in the alphabet.
///
/// # Panics
///
/// Panics if `obs` is empty.
pub fn viterbi_last_in(log: &LogHmm, obs: &[usize], scratch: &mut ViterbiScratch) -> (usize, f64) {
    assert!(!obs.is_empty(), "observation sequence must be non-empty");
    debug_assert!(
        obs.iter().all(|&o| o < log.num_symbols),
        "observation outside the alphabet"
    );
    let (h, m) = (log.num_states, log.num_symbols);

    let prev = &mut scratch.prev;
    let cur = &mut scratch.cur;
    prev.clear();
    prev.resize(h, f64::NEG_INFINITY);
    cur.clear();
    cur.resize(h, f64::NEG_INFINITY);

    for i in 0..h {
        prev[i] = log.ln_pi[i] + log.ln_b[i * m + obs[0]];
    }
    for &o in &obs[1..] {
        for j in 0..h {
            let mut best = f64::NEG_INFINITY;
            for i in 0..h {
                let cand = prev[i] + log.ln_a[i * h + j];
                if cand > best {
                    best = cand;
                }
            }
            cur[j] = best + log.ln_b[j * m + o];
        }
        std::mem::swap(prev, cur);
    }

    let (mut last, mut log_prob) = (0usize, f64::NEG_INFINITY);
    for (i, &d) in prev.iter().enumerate() {
        if d > log_prob {
            log_prob = d;
            last = i;
        }
    }
    (last, log_prob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_model() -> Hmm {
        Hmm::new(
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![0.6, 0.4],
        )
    }

    /// Brute-force the best path by enumeration.
    fn best_path_brute(hmm: &Hmm, obs: &[usize]) -> (Vec<usize>, f64) {
        let h = hmm.num_states;
        let t_len = obs.len();
        let mut best_p = f64::NEG_INFINITY;
        let mut best_path = Vec::new();
        for code in 0..(h as u64).pow(t_len as u32) {
            let mut c = code;
            let mut path = Vec::with_capacity(t_len);
            for _ in 0..t_len {
                path.push((c % h as u64) as usize);
                c /= h as u64;
            }
            let mut p = (hmm.pi[path[0]] * hmm.b[path[0]][obs[0]]).ln();
            for t in 1..t_len {
                p += (hmm.a[path[t - 1]][path[t]] * hmm.b[path[t]][obs[t]]).ln();
            }
            if p > best_p {
                best_p = p;
                best_path = path;
            }
        }
        (best_path, best_p)
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let hmm = test_model();
        for obs in [
            vec![0],
            vec![1, 0],
            vec![0, 1, 1],
            vec![1, 1, 0, 0, 1],
            vec![0, 0, 0, 1, 1, 1],
        ] {
            let v = viterbi(&hmm, &obs);
            let (path, p) = best_path_brute(&hmm, &obs);
            assert!((v.log_prob - p).abs() < 1e-9, "obs {obs:?}");
            assert_eq!(v.states, path, "obs {obs:?}");
        }
    }

    #[test]
    fn decodes_obvious_emissions() {
        // Symbol 0 is overwhelmingly from state 0, symbol 1 from state 1.
        let hmm = Hmm::new(
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![vec![0.99, 0.01], vec![0.01, 0.99]],
            vec![0.5, 0.5],
        );
        let v = viterbi(&hmm, &[0, 0, 1, 1, 0]);
        assert_eq!(v.states, vec![0, 0, 1, 1, 0]);
    }

    #[test]
    fn sticky_transitions_smooth_the_path() {
        // With extremely sticky states and mildly informative emissions, a
        // single discordant observation should not flip the state.
        let hmm = Hmm::new(
            vec![vec![0.99, 0.01], vec![0.01, 0.99]],
            vec![vec![0.6, 0.4], vec![0.4, 0.6]],
            vec![0.5, 0.5],
        );
        let v = viterbi(&hmm, &[0, 0, 1, 0, 0]);
        assert_eq!(v.states, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn log_prob_is_nonpositive() {
        let v = viterbi(&test_model(), &[0, 1, 0, 1]);
        assert!(v.log_prob <= 0.0);
    }

    #[test]
    fn handles_long_sequences_without_underflow() {
        let obs: Vec<usize> = (0..10_000).map(|t| (t / 11) % 2).collect();
        let v = viterbi(&test_model(), &obs);
        assert_eq!(v.states.len(), obs.len());
        assert!(v.log_prob.is_finite());
    }

    #[test]
    fn impossible_observation_yields_neg_infinity() {
        // State emissions that cannot produce symbol 1 at all.
        let hmm = Hmm::new(vec![vec![1.0]], vec![vec![1.0, 0.0]], vec![1.0]);
        let v = viterbi(&hmm, &[0, 1]);
        assert_eq!(v.log_prob, f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_sequence() {
        viterbi(&test_model(), &[]);
    }

    #[test]
    fn last_state_in_is_bit_identical_to_full_decode() {
        // Zero transitions and emissions exercise the -inf logarithms.
        let sparse = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.3, 0.7]],
            vec![vec![0.9, 0.1], vec![0.0, 1.0]],
            vec![0.5, 0.5],
        );
        let mut scratch = ViterbiScratch::new();
        for hmm in [test_model(), sparse] {
            let log = LogHmm::new(&hmm);
            // Reusing one scratch across calls of different lengths must
            // keep every result bit-identical to the allocating path.
            for obs in [
                vec![0],
                vec![1, 0],
                vec![0, 1, 1],
                vec![1, 1, 0, 0, 1],
                vec![0, 0, 0, 1, 1, 1],
                (0..500).map(|t| (t / 7) % 2).collect::<Vec<_>>(),
            ] {
                let full = viterbi(&hmm, &obs);
                let (last, log_prob) = viterbi_last_in(&log, &obs, &mut scratch);
                assert_eq!(Some(&last), full.states.last(), "obs {obs:?}");
                assert_eq!(log_prob.to_bits(), full.log_prob.to_bits(), "obs {obs:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn last_state_in_rejects_empty_sequence() {
        viterbi_last_in(&LogHmm::new(&test_model()), &[], &mut ViterbiScratch::new());
    }
}
