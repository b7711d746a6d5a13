//! The HMM parameter triple `lambda = (A, B, pi)` (paper Eqs. 9-11).

/// A discrete hidden Markov model with `H` states and `M` observation
/// symbols.
///
/// * `a[i][j] = P(q_{t+1} = S_j | q_t = S_i)` — transition matrix (Eq. 9);
/// * `b[j][k] = P(O_t = k | q_t = S_j)` — emission matrix (Eq. 10);
/// * `pi[i] = P(q_1 = S_i)` — initial distribution (Eq. 11).
///
/// Rows are validated to be stochastic on construction; Baum-Welch
/// re-estimation preserves the invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    /// Number of hidden states `H`.
    pub num_states: usize,
    /// Number of observation symbols `M`.
    pub num_symbols: usize,
    /// Row-major transition probabilities, `num_states x num_states`.
    pub a: Vec<Vec<f64>>,
    /// Row-major emission probabilities, `num_states x num_symbols`.
    pub b: Vec<Vec<f64>>,
    /// Initial state distribution, length `num_states`.
    pub pi: Vec<f64>,
}

fn is_distribution(row: &[f64]) -> bool {
    row.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p))
        && (row.iter().sum::<f64>() - 1.0).abs() < 1e-6
}

impl Hmm {
    /// Creates a validated model.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or any row is not a probability
    /// distribution.
    pub fn new(a: Vec<Vec<f64>>, b: Vec<Vec<f64>>, pi: Vec<f64>) -> Self {
        let h = pi.len();
        assert!(h > 0, "need at least one state");
        assert_eq!(a.len(), h, "A must have one row per state");
        assert!(a.iter().all(|r| r.len() == h), "A must be square");
        assert_eq!(b.len(), h, "B must have one row per state");
        let m = b[0].len();
        assert!(m > 0, "need at least one symbol");
        assert!(
            b.iter().all(|r| r.len() == m),
            "B rows must agree on symbol count"
        );
        assert!(is_distribution(&pi), "pi must be a distribution: {pi:?}");
        for (i, row) in a.iter().enumerate() {
            assert!(
                is_distribution(row),
                "A row {i} is not a distribution: {row:?}"
            );
        }
        for (j, row) in b.iter().enumerate() {
            assert!(
                is_distribution(row),
                "B row {j} is not a distribution: {row:?}"
            );
        }
        Hmm {
            num_states: h,
            num_symbols: m,
            a,
            b,
            pi,
        }
    }

    /// A uniform model: every transition, emission, and initial probability
    /// equal — the standard agnostic starting point for Baum-Welch when
    /// nothing is known.
    #[cfg(test)]
    pub(crate) fn uniform(num_states: usize, num_symbols: usize) -> Self {
        assert!(num_states > 0 && num_symbols > 0);
        Hmm {
            num_states,
            num_symbols,
            a: vec![vec![1.0 / num_states as f64; num_states]; num_states],
            b: vec![vec![1.0 / num_symbols as f64; num_symbols]; num_states],
            pi: vec![1.0 / num_states as f64; num_states],
        }
    }

    /// A mildly perturbed uniform model. Exactly uniform parameters are a
    /// fixed point of Baum-Welch (all states indistinguishable), so
    /// re-estimation needs symmetry breaking; the perturbation is
    /// deterministic in `seed`.
    #[cfg(test)]
    pub(crate) fn near_uniform(num_states: usize, num_symbols: usize, seed: u64) -> Self {
        let mut m = Self::uniform(num_states, num_symbols);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut noise = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1
        };
        for row in m.a.iter_mut().chain(m.b.iter_mut()) {
            for p in row.iter_mut() {
                *p = (*p + noise() * *p).max(1e-3);
            }
            let sum: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= sum;
            }
        }
        m
    }

    /// The paper's 3-state (OP/NP/UP), 3-symbol (peak/center/valley)
    /// provisioning model, initialized with a sticky-diagonal prior: the
    /// provisioning regime tends to persist, and each regime prefers its
    /// namesake symbol (OP -> peak of unused resource, UP -> valley).
    pub(crate) fn paper_default() -> Self {
        Hmm::new(
            vec![
                vec![0.6, 0.3, 0.1],
                vec![0.2, 0.6, 0.2],
                vec![0.1, 0.3, 0.6],
            ],
            vec![
                vec![0.6, 0.3, 0.1],
                vec![0.2, 0.6, 0.2],
                vec![0.1, 0.3, 0.6],
            ],
            vec![1.0 / 3.0; 3],
        )
    }

    /// Validates an observation sequence against the symbol alphabet.
    ///
    /// # Panics
    ///
    /// Panics if any symbol is out of range.
    pub(crate) fn check_observations(&self, obs: &[usize]) {
        for (t, &o) in obs.iter().enumerate() {
            assert!(
                o < self.num_symbols,
                "observation {o} at position {t} exceeds alphabet size {}",
                self.num_symbols
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_is_valid() {
        let m = Hmm::uniform(3, 3);
        assert_eq!(m.num_states, 3);
        assert_eq!(m.num_symbols, 3);
        assert!((m.pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_default_has_three_states_three_symbols() {
        let m = Hmm::paper_default();
        assert_eq!(m.num_states, 3);
        assert_eq!(m.num_symbols, 3);
        for row in m.a.iter().chain(m.b.iter()) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn near_uniform_rows_remain_stochastic_but_not_exactly_uniform() {
        let m = Hmm::near_uniform(3, 3, 42);
        for row in m.a.iter().chain(m.b.iter()) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        let uniform = 1.0 / 3.0;
        assert!(
            m.a.iter().flatten().any(|&p| (p - uniform).abs() > 1e-6),
            "perturbation must break symmetry"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_non_stochastic_transition_row() {
        Hmm::new(
            vec![vec![0.9, 0.9], vec![0.5, 0.5]],
            vec![vec![1.0], vec![1.0]],
            vec![0.5, 0.5],
        );
    }

    #[test]
    #[should_panic]
    fn rejects_shape_mismatch() {
        Hmm::new(
            vec![vec![1.0]],
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![1.0],
        );
    }

    #[test]
    #[should_panic]
    fn check_observations_rejects_out_of_range() {
        Hmm::uniform(2, 2).check_observations(&[0, 1, 2]);
    }
}
