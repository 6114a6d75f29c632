//! Discrete-distribution sampling for shot execution.
//!
//! Every repeated-experiment workflow in the toolbox ends the same way:
//! a probability vector over outcomes (simulation branches, the
//! measured-qubit marginal of a terminal measurement block) has to be
//! sampled, once per shot. There is one sampler for all of them:
//! [`CdfTable`] — the weights prefix-summed **in place** (one `f64` per
//! outcome, no second array) and searched by bisection, `O(outcomes)`
//! to build and `O(log outcomes)` per draw. `Simulation::counts`, the
//! trajectory engine's shared terminal table and a diverged noisy
//! lane's own-state draw all build it the same way and draw from it the
//! same way, so an outcome is one function of (distribution, one
//! uniform) wherever it is drawn.
//!
//! There is deliberately no `O(1)`-per-draw alias table beside it: its
//! build costs three times the memory and several passes where this one
//! costs the single pass that validates the weights anyway, and a
//! request would have to draw ~57 000 shots from a 2¹⁶-outcome table
//! (~108 000 from 2²⁰) before that paid off (recorded at PR 16,
//! EXPERIMENTS.md F12).
//!
//! Weights need not be normalized — a draw scales its uniform by the
//! total — but must be finite, non-negative and not all zero. Draws are
//! deterministic in the RNG stream: the same generator state always
//! yields the same outcome index, which is what makes seeded `counts`
//! and `(seed, shot)`-keyed trajectory sampling reproducible.

use crate::error::QclabError;
use rand::Rng;

/// Cumulative-sum sampler: one `f64` per outcome, draws by binary search
/// over the running totals.
#[derive(Clone, Debug)]
pub struct CdfTable {
    /// `cum[i]` = sum of weights `0..=i`; `cum[len-1]` is the total.
    cum: Vec<f64>,
}

impl CdfTable {
    /// Turns (unnormalized) weights into their running totals in place:
    /// one pass that validates as it sums.
    pub fn new(mut weights: Vec<f64>) -> Result<Self, QclabError> {
        if weights.is_empty() {
            return Err(QclabError::Unavailable(
                "cannot sample from an empty distribution".into(),
            ));
        }
        let mut acc = 0.0;
        for w in &mut weights {
            if !w.is_finite() || *w < 0.0 {
                return Err(QclabError::Unavailable(format!(
                    "cannot sample from a distribution with weight {w}"
                )));
            }
            acc += *w;
            *w = acc;
        }
        if acc <= 0.0 || !acc.is_finite() {
            return Err(QclabError::Unavailable(
                "cannot sample from an all-zero distribution".into(),
            ));
        }
        Ok(CdfTable { cum: weights })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// `true` for a zero-outcome table (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Heap bytes the table occupies.
    pub fn bytes(&self) -> usize {
        self.cum.len() * std::mem::size_of::<f64>()
    }

    /// Draws one outcome index from one uniform: a point in
    /// `[0, total)` mapped through the cumulative sums. Zero-weight
    /// outcomes are unreachable because the search skips empty
    /// cumulative intervals.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().expect("CdfTable is never empty");
        let r: f64 = rng.gen::<f64>() * total;
        // first index whose cumulative sum exceeds r
        let idx = self.cum.partition_point(|&c| c <= r);
        idx.min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pearson chi-square statistic of observed counts against expected
    /// probabilities (bins with negligible expectation are pooled away).
    fn chi_square(counts: &[u64], probs: &[f64], draws: u64) -> (f64, usize) {
        let mut stat = 0.0;
        let mut dof = 0usize;
        for (&c, &p) in counts.iter().zip(probs) {
            let expect = p * draws as f64;
            if expect < 5.0 {
                continue; // standard applicability rule
            }
            let d = c as f64 - expect;
            stat += d * d / expect;
            dof += 1;
        }
        (stat, dof.saturating_sub(1))
    }

    fn draw_histogram(sampler: &CdfTable, draws: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; sampler.len()];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        counts
    }

    /// Conservative upper chi-square quantile: for any dof the statistic
    /// exceeds `dof + 5 √(2 dof) + 10` with probability well under 1e-4.
    fn chi_bound(dof: usize) -> f64 {
        dof as f64 + 5.0 * (2.0 * dof as f64).sqrt() + 10.0
    }

    #[test]
    fn draws_match_the_distribution_chi_square() {
        // a deliberately lopsided 64-outcome distribution with zeros,
        // leading and trailing ones included
        let weights: Vec<f64> = (0..64)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => 1.0,
                2 => 0.2,
                _ if i == 63 => 0.0,
                _ => 5.0 + i as f64,
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let draws = 200_000u64;
        let sampler = CdfTable::new(weights).unwrap();
        assert_eq!(sampler.bytes(), 64 * 8);
        let counts = draw_histogram(&sampler, draws, 42);
        // zero-probability outcomes are never drawn
        for (i, &c) in counts.iter().enumerate() {
            if probs[i] == 0.0 {
                assert_eq!(c, 0, "outcome {i} has zero probability");
            }
        }
        let (stat, dof) = chi_square(&counts, &probs, draws);
        assert!(dof > 10, "test must retain enough bins, got {dof}");
        assert!(stat < chi_bound(dof), "chi-square {stat:.1} over {dof} dof");
    }

    #[test]
    fn two_point_distribution_is_unbiased() {
        let draws = 100_000u64;
        let sampler = CdfTable::new(vec![0.3, 0.7]).unwrap();
        let counts = draw_histogram(&sampler, draws, 7);
        let f0 = counts[0] as f64 / draws as f64;
        assert!((f0 - 0.3).abs() < 0.01, "P(0) = {f0}");
    }

    #[test]
    fn deterministic_in_the_rng_stream() {
        let weights: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sampler = CdfTable::new(weights).unwrap();
        let a = draw_histogram(&sampler, 1000, 5);
        let b = draw_histogram(&sampler, 1000, 5);
        assert_eq!(a, b);
        let c = draw_histogram(&sampler, 1000, 6);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn degenerate_single_outcome_always_wins() {
        let sampler = CdfTable::new(vec![4.2]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
        // a certain outcome among zeros is always drawn
        let mut weights = vec![0.0; 50];
        weights[17] = 1.0;
        let sampler = CdfTable::new(weights).unwrap();
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 17);
        }
    }

    #[test]
    fn invalid_weight_vectors_are_rejected() {
        for bad in [
            vec![],
            vec![0.0, 0.0],
            vec![1.0, -0.5],
            vec![f64::NAN],
            vec![f64::INFINITY, 1.0],
        ] {
            assert!(CdfTable::new(bad.clone()).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unnormalized_weights_are_normalized() {
        // weights summing to 300: frequencies still follow the ratios
        let sampler = CdfTable::new(vec![100.0, 200.0]).unwrap();
        let counts = draw_histogram(&sampler, 30_000, 11);
        let f1 = counts[1] as f64 / 30_000.0;
        assert!((f1 - 2.0 / 3.0).abs() < 0.02, "P(1) = {f1}");
    }
}
