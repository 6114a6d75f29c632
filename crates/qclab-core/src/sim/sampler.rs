//! Discrete-distribution sampling for shot execution.
//!
//! Every repeated-experiment workflow in the toolbox ends the same way:
//! a probability vector over outcomes (simulation branches, measured-
//! qubit marginals) has to be sampled `shots` times. The naive approach
//! — a linear cumulative scan per draw — costs `O(outcomes)` per shot
//! and dominated `Simulation::counts` for branch-heavy circuits. This
//! module provides the two standard constant-ish-time samplers:
//!
//! * [`AliasTable`] — Vose's alias method: `O(outcomes)` build, **O(1)**
//!   per draw (one uniform index + one biased coin). The right tool when
//!   many draws amortize the table build — `counts(shots)` and the
//!   trajectory engine's terminal-measurement fast path.
//! * [`CdfTable`] — cumulative sums + binary search: `O(outcomes)`
//!   build, `O(log outcomes)` per draw, no auxiliary alias array. The
//!   fallback for small outcome sets, where the scan is cache-resident
//!   and the alias bookkeeping buys nothing.
//!
//! [`DiscreteSampler::new`] picks between them by outcome count, so
//! callers just build one and draw.
//!
//! Weights need not be normalized — both samplers divide by the total —
//! but must be finite, non-negative and not all zero. Draws are
//! deterministic in the RNG stream: the same generator state always
//! yields the same outcome index, which is what makes seeded `counts`
//! and `(seed, shot)`-keyed trajectory sampling reproducible.

use crate::error::QclabError;
use rand::Rng;

/// Outcome counts at or below this size sample through a [`CdfTable`];
/// larger distributions build an [`AliasTable`]. At 32 entries the
/// cumulative vector fits in a few cache lines and a binary search beats
/// the alias method's extra indirection.
pub const ALIAS_THRESHOLD: usize = 32;

fn validate_weights(weights: &[f64]) -> Result<f64, QclabError> {
    if weights.is_empty() {
        return Err(QclabError::Unavailable(
            "cannot sample from an empty distribution".into(),
        ));
    }
    let mut total = 0.0;
    for &w in weights {
        if !w.is_finite() || w < 0.0 {
            return Err(QclabError::Unavailable(format!(
                "cannot sample from a distribution with weight {w}"
            )));
        }
        total += w;
    }
    if total <= 0.0 || !total.is_finite() {
        return Err(QclabError::Unavailable(
            "cannot sample from an all-zero distribution".into(),
        ));
    }
    Ok(total)
}

/// Vose's alias method: every outcome `i` owns one column split between
/// itself (with probability `prob[i]`) and a donor outcome `alias[i]`.
/// A draw picks a uniform column and flips the column's biased coin —
/// two RNG draws and two array reads per sample, independent of the
/// outcome count.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from (unnormalized) non-negative weights in
    /// `O(len)` time and `2 · len` words of memory.
    pub fn new(weights: &[f64]) -> Result<Self, QclabError> {
        let total = validate_weights(weights)?;
        let n = weights.len();
        let scale = n as f64 / total;
        // scaled weights: mean 1, split into under- and overfull columns
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<usize> = (0..n).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // donor `l` tops the underfull column `s` up to exactly 1
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // numerical leftovers on either worklist are exactly-full columns
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` for a zero-outcome table (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index: uniform column, then the column's coin.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let col = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[col] {
            col
        } else {
            self.alias[col]
        }
    }
}

/// Cumulative-sum sampler: one `f64` per outcome, draws by binary search
/// over the running totals.
#[derive(Clone, Debug)]
pub struct CdfTable {
    /// `cum[i]` = sum of weights `0..=i`; `cum[len-1]` is the total.
    cum: Vec<f64>,
}

impl CdfTable {
    /// Builds the cumulative table from (unnormalized) weights.
    pub fn new(weights: &[f64]) -> Result<Self, QclabError> {
        validate_weights(weights)?;
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cum.push(acc);
        }
        Ok(CdfTable { cum })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// `true` for a zero-outcome table (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Draws one outcome index: a uniform point in `[0, total)` mapped
    /// through the cumulative sums. Zero-weight outcomes are unreachable
    /// because the search skips empty cumulative intervals.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().expect("CdfTable is never empty");
        let r: f64 = rng.gen::<f64>() * total;
        // first index whose cumulative sum exceeds r
        let idx = self.cum.partition_point(|&c| c <= r);
        idx.min(self.cum.len() - 1)
    }
}

/// A discrete sampler that picks the right backend for the outcome
/// count: cumulative search up to [`ALIAS_THRESHOLD`] outcomes, the
/// alias method above it.
#[derive(Clone, Debug)]
pub enum DiscreteSampler {
    /// O(1)-per-draw alias table (large outcome sets).
    Alias(AliasTable),
    /// Cumulative binary search (small outcome sets).
    Cdf(CdfTable),
}

impl DiscreteSampler {
    /// Builds a sampler over (unnormalized) non-negative weights.
    pub fn new(weights: &[f64]) -> Result<Self, QclabError> {
        if weights.len() <= ALIAS_THRESHOLD {
            Ok(DiscreteSampler::Cdf(CdfTable::new(weights)?))
        } else {
            Ok(DiscreteSampler::Alias(AliasTable::new(weights)?))
        }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        match self {
            DiscreteSampler::Alias(t) => t.len(),
            DiscreteSampler::Cdf(t) => t.len(),
        }
    }

    /// `true` for a zero-outcome sampler (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the sampler's tables occupy.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            DiscreteSampler::Alias(t) => t.len() * (size_of::<f64>() + size_of::<usize>()),
            DiscreteSampler::Cdf(t) => t.len() * size_of::<f64>(),
        }
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        match self {
            DiscreteSampler::Alias(t) => t.sample(rng),
            DiscreteSampler::Cdf(t) => t.sample(rng),
        }
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

    fn draw_histogram(sampler: &DiscreteSampler, draws: u64, seed: u64) -> Vec<u64> {
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
    fn alias_and_cdf_match_the_distribution_chi_square() {
        // a deliberately lopsided 64-outcome distribution with zeros
        let weights: Vec<f64> = (0..64)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => 1.0,
                2 => 0.2,
                _ => 5.0 + i as f64,
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let draws = 200_000u64;

        for sampler in [
            DiscreteSampler::Alias(AliasTable::new(&weights).unwrap()),
            DiscreteSampler::Cdf(CdfTable::new(&weights).unwrap()),
        ] {
            let counts = draw_histogram(&sampler, draws, 42);
            // zero-probability outcomes are never drawn
            for (i, &c) in counts.iter().enumerate() {
                if probs[i] == 0.0 {
                    assert_eq!(c, 0, "outcome {i} has zero probability");
                }
            }
            let (stat, dof) = chi_square(&counts, &probs, draws);
            assert!(dof > 10, "test must retain enough bins, got {dof}");
            assert!(
                stat < chi_bound(dof),
                "chi-square {stat:.1} over {dof} dof for {sampler:?}"
            );
        }
    }

    #[test]
    fn two_point_distribution_is_unbiased() {
        // p = 0.3/0.7 through both backends
        let weights = [0.3, 0.7];
        let draws = 100_000u64;
        for sampler in [
            DiscreteSampler::Alias(AliasTable::new(&weights).unwrap()),
            DiscreteSampler::new(&weights).unwrap(), // picks Cdf at len 2
        ] {
            let counts = draw_histogram(&sampler, draws, 7);
            let f0 = counts[0] as f64 / draws as f64;
            assert!((f0 - 0.3).abs() < 0.01, "P(0) = {f0} via {sampler:?}");
        }
    }

    #[test]
    fn sampler_choice_follows_the_threshold() {
        let small = vec![1.0; ALIAS_THRESHOLD];
        assert!(matches!(
            DiscreteSampler::new(&small).unwrap(),
            DiscreteSampler::Cdf(_)
        ));
        let large = vec![1.0; ALIAS_THRESHOLD + 1];
        assert!(matches!(
            DiscreteSampler::new(&large).unwrap(),
            DiscreteSampler::Alias(_)
        ));
    }

    #[test]
    fn deterministic_in_the_rng_stream() {
        let weights: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sampler = DiscreteSampler::new(&weights).unwrap();
        let a = draw_histogram(&sampler, 1000, 5);
        let b = draw_histogram(&sampler, 1000, 5);
        assert_eq!(a, b);
        let c = draw_histogram(&sampler, 1000, 6);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn degenerate_single_outcome_always_wins() {
        let sampler = DiscreteSampler::new(&[4.2]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
        // a certain outcome among zeros is always drawn, both backends
        let mut weights = vec![0.0; 50];
        weights[17] = 1.0;
        for sampler in [
            DiscreteSampler::Alias(AliasTable::new(&weights).unwrap()),
            DiscreteSampler::Cdf(CdfTable::new(&weights).unwrap()),
        ] {
            for _ in 0..100 {
                assert_eq!(sampler.sample(&mut rng), 17, "{sampler:?}");
            }
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
            assert!(AliasTable::new(&bad).is_err(), "alias accepted {bad:?}");
            assert!(CdfTable::new(&bad).is_err(), "cdf accepted {bad:?}");
            assert!(
                DiscreteSampler::new(&bad).is_err(),
                "sampler accepted {bad:?}"
            );
        }
    }

    #[test]
    fn unnormalized_weights_are_normalized() {
        // weights summing to 300: frequencies still follow the ratios
        let weights = [100.0, 200.0];
        let sampler = DiscreteSampler::new(&weights).unwrap();
        let counts = draw_histogram(&sampler, 30_000, 11);
        let f1 = counts[1] as f64 / 30_000.0;
        assert!((f1 - 2.0 / 3.0).abs() < 0.02, "P(1) = {f1}");
    }
}
