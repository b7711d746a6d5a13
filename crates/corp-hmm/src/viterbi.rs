//! Viterbi decoding (paper Eq. 16 context).
//!
//! "In implementation, we use Viterbi algorithm to find the single best
//! state sequence (path) ... maximizing P(Q, O | lambda)." Log-space
//! recursion avoids underflow on long sequences.
//!
//! [`viterbi`] decodes the whole path from an [`Hmm`], taking logarithms
//! as it goes. The per-window prediction path steps the same recurrence
//! one observation at a time over a [`LogHmm3`] built once per model,
//! inside the fluctuation predictor's one pass over a series; its last
//! state is bit-identical to the full path's.

use crate::model::Hmm;

/// `ln p`, with `ln 0 = -inf` (an impossible transition or emission).
fn ln(p: f64) -> f64 {
    if p > 0.0 {
        p.ln()
    } else {
        f64::NEG_INFINITY
    }
}

/// The logarithms of a 3-state, 3-symbol model's parameters: what the
/// fluctuation predictor's one-pass decode reads, taken once per model
/// instead of once per trellis step, on fixed-size arrays.
#[derive(Debug, Clone)]
pub(crate) struct LogHmm3 {
    /// `ln pi[i]`.
    ln_pi: [f64; 3],
    /// `ln a[i][j]` at `3 * i + j`.
    ln_a: [f64; 9],
    /// `ln b[j][k]` at `3 * j + k`.
    ln_b: [f64; 9],
}

impl LogHmm3 {
    /// Takes the logarithm of every parameter of `hmm`.
    ///
    /// # Panics
    ///
    /// Panics unless `hmm` has 3 states and 3 symbols.
    pub(crate) fn new(hmm: &Hmm) -> Self {
        assert!(
            hmm.num_states == 3 && hmm.num_symbols == 3,
            "the one-pass decode is 3-state, 3-symbol"
        );
        LogHmm3 {
            ln_pi: std::array::from_fn(|i| ln(hmm.pi[i])),
            ln_a: std::array::from_fn(|n| ln(hmm.a[n / 3][n % 3])),
            ln_b: std::array::from_fn(|n| ln(hmm.b[n / 3][n % 3])),
        }
    }

    /// The first trellis row, for observation `o`.
    #[inline]
    pub(crate) fn start(&self, o: usize) -> [f64; 3] {
        std::array::from_fn(|i| self.ln_pi[i] + self.ln_b[3 * i + o])
    }

    /// The row after `delta` for observation `o`: [`viterbi`]'s recurrence
    /// in its arithmetic order, so every value is bit-identical to its
    /// trellis.
    #[inline]
    pub(crate) fn step(&self, delta: &[f64; 3], o: usize) -> [f64; 3] {
        std::array::from_fn(|j| {
            let mut best = f64::NEG_INFINITY;
            for i in 0..3 {
                let cand = delta[i] + self.ln_a[3 * i + j];
                if cand > best {
                    best = cand;
                }
            }
            best + self.ln_b[3 * j + o]
        })
    }
}

/// The last state of the best path ending in trellis row `delta`: the
/// first maximum, as [`viterbi`] picks it.
#[inline]
pub(crate) fn last_state(delta: &[f64; 3]) -> usize {
    let (mut last, mut best) = (0usize, f64::NEG_INFINITY);
    for (i, &d) in delta.iter().enumerate() {
        if d > best {
            best = d;
            last = i;
        }
    }
    last
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
    fn stepped_rows_are_bit_identical_to_full_decode() {
        // Zero transitions and emissions exercise the -inf logarithms.
        let sparse = Hmm::new(
            vec![
                vec![1.0, 0.0, 0.0],
                vec![0.3, 0.7, 0.0],
                vec![0.2, 0.2, 0.6],
            ],
            vec![
                vec![0.9, 0.1, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.1, 0.0, 0.9],
            ],
            vec![0.5, 0.5, 0.0],
        );
        for hmm in [Hmm::paper_default(), Hmm::near_uniform(3, 3, 7), sparse] {
            let log = LogHmm3::new(&hmm);
            for obs in [
                vec![0],
                vec![1, 0],
                vec![0, 2, 1],
                vec![2, 2, 0, 0, 1],
                vec![0, 0, 0, 1, 1, 1],
                (0..500).map(|t| (t / 7) % 3).collect::<Vec<_>>(),
            ] {
                let full = viterbi(&hmm, &obs);
                let mut delta = log.start(obs[0]);
                for &o in &obs[1..] {
                    delta = log.step(&delta, o);
                }
                let last = last_state(&delta);
                assert_eq!(Some(&last), full.states.last(), "obs {obs:?}");
                assert_eq!(
                    delta[last].to_bits(),
                    full.log_prob.to_bits(),
                    "obs {obs:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn stepped_rows_reject_other_shapes() {
        LogHmm3::new(&test_model());
    }
}
