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
//! A prepared trajectory run draws its terminal block here: every shot
//! from the table (`draw_sampled`) or from the stream (`draw_streamed`),
//! each on its own `(seed, shot)` stream, tallied by outcome index.
//!
//! The table is the one sampler, in two forms. A noiseless dense run
//! whose table could never be kept on its plan (over
//! [`RETAINED_BYTES_CAP`](crate::program::RETAINED_BYTES_CAP)) and would
//! cost more than its shots' points draws from a `CdfStream` instead:
//! the same running total, read off the state twice rather than stored,
//! every point's outcome the table's bit for bit.
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
use crate::sim::control::{stop_or_err, StopCause};
use crate::sim::prep::{SampledPrep, StreamedPrep};
use crate::sim::trajectory::{shot_rng, NormStats, TrajectoryConfig, TrajectoryResult};
use qclab_math::rng::Rng;
use std::collections::BTreeMap;

/// Cumulative-sum sampler: one `f64` per outcome, draws by binary search
/// over the running totals.
#[derive(Clone, Debug)]
pub struct CdfTable {
    /// `cum[i]` = sum of weights `0..=i`; `cum[len-1]` is the total.
    cum: Vec<f64>,
}

/// The running total both samplers keep over weights in outcome order,
/// validating each weight as it is added.
#[derive(Default)]
struct Running(f64);

impl Running {
    /// Adds `w` and returns the new total.
    fn add(&mut self, w: f64) -> Result<f64, QclabError> {
        if !w.is_finite() || w < 0.0 {
            return Err(QclabError::Unavailable(format!(
                "cannot sample from a distribution with weight {w}"
            )));
        }
        self.0 += w;
        Ok(self.0)
    }

    /// The total of `len` weights, if they form a distribution.
    fn total(self, len: usize) -> Result<f64, QclabError> {
        if len == 0 {
            return Err(QclabError::Unavailable(
                "cannot sample from an empty distribution".into(),
            ));
        }
        if self.0 <= 0.0 || !self.0.is_finite() {
            return Err(QclabError::Unavailable(
                "cannot sample from an all-zero distribution".into(),
            ));
        }
        Ok(self.0)
    }
}

impl CdfTable {
    /// Turns (unnormalized) weights into their running totals in place:
    /// one pass that validates as it sums.
    pub fn new(mut weights: Vec<f64>) -> Result<Self, QclabError> {
        let mut running = Running::default();
        for w in &mut weights {
            *w = running.add(*w)?;
        }
        running.total(weights.len())?;
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
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cum.last().expect("CdfTable is never empty");
        self.outcome(rng.f64() * total)
    }

    /// The outcome of the point `r` in `[0, total]`: the first index
    /// whose cumulative sum exceeds `r`, clamped to the last outcome.
    #[inline]
    fn outcome(&self, r: f64) -> usize {
        let idx = self.cum.partition_point(|&c| c <= r);
        idx.min(self.cum.len() - 1)
    }
}

/// [`CdfTable`]'s draws without its table, for weights that can be
/// produced again in outcome order (a marginal read off the state it came
/// from): [`new`](Self::new) sums them once for the total, and a run
/// draws all its shots at once — each shot's point `u · total`, sorted,
/// then outcomes assigned in one more pass over the weights
/// ([`outcomes`](Self::outcomes)). The running total is kept as
/// [`CdfTable::new`] keeps it, so every outcome — and every validation
/// error — is the table's, bit for bit.
///
/// A pass receives the weights as `weights(sink)`, which must call `sink`
/// on consecutive slices of them in outcome order: a slice at a time
/// keeps the per-weight work a plain loop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CdfStream {
    len: usize,
    total: f64,
}

/// Where a pass of a [`CdfStream`] receives its weights.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(&[f64]);

impl CdfStream {
    /// Validates and sums the weights in outcome order; the first invalid
    /// one is the error.
    pub(crate) fn new(weights: impl FnOnce(Sink<'_>)) -> Result<Self, QclabError> {
        let (mut running, mut len, mut invalid) = (Running::default(), 0, None);
        weights(&mut |slice| {
            len += slice.len();
            for &w in slice {
                if let Err(e) = running.add(w) {
                    invalid.get_or_insert(e);
                }
            }
        });
        match invalid {
            Some(e) => Err(e),
            None => Ok(CdfStream {
                len,
                total: running.total(len)?,
            }),
        }
    }

    /// The point a uniform `u` in `[0, 1)` selects, as
    /// [`CdfTable::sample`] computes it.
    pub(crate) fn point(&self, u: f64) -> f64 {
        u * self.total
    }

    /// Emits the outcome of each point of `sorted` (ascending) in order,
    /// walking the weights [`new`](Self::new) saw once more: the outcome
    /// of `r` is the first whose running total exceeds it, which is
    /// [`CdfTable`]'s bisection.
    pub(crate) fn outcomes(
        &self,
        sorted: &[f64],
        weights: impl FnOnce(Sink<'_>),
        mut emit: impl FnMut(usize),
    ) {
        let (mut next, mut cum, mut k) = (0, 0.0, 0);
        weights(&mut |slice| {
            for &w in slice {
                cum += w;
                while next < sorted.len() && cum > sorted[next] {
                    emit(k);
                    next += 1;
                }
                k += 1;
            }
        });
        // points at or above the total: clamped to the last outcome
        for _ in next..sorted.len() {
            emit(self.len - 1);
        }
    }
}

/// Renders a tally keyed by terminal outcome index as measurement
/// records, once per distinct outcome: measurement `j` (execution order)
/// is bit `m−1−j` of the index, matching the per-qubit record layout.
pub(super) fn render_outcomes(tally: BTreeMap<usize, u64>, m: usize) -> BTreeMap<String, u64> {
    let bit = |k: usize, j: usize| if (k >> j) & 1 == 1 { '1' } else { '0' };
    let record = |k| (0..m).rev().map(|j| bit(k, j)).collect();
    tally.into_iter().map(|(k, c)| (record(k), c)).collect()
}

/// Draws `config.shots` shots from a prepared table, each from the
/// shot's own `(config.seed, shot)` RNG stream — one draw per shot, so
/// the sample is deterministic and independent of execution order *and*
/// of which run the prep was built for. This is the noisy
/// ensemble with every lane error-free: each shot reports the shared
/// evolution's watchdog statistics. Polls `config.control` between
/// draws; a stop keeps the tally of the shots already drawn.
pub(super) fn draw_sampled(
    prep: &SampledPrep,
    config: &TrajectoryConfig,
    empty: TrajectoryResult,
) -> Result<TrajectoryResult, QclabError> {
    // tally by outcome index — O(log distinct) per draw, never 2^m
    // storage for sparse outcomes
    let mut tally: BTreeMap<usize, u64> = BTreeMap::new();
    let (done, stopped) = each_shot(config, |rng| {
        *tally.entry(prep.draw(rng)).or_insert(0) += 1;
    })?;
    Ok(tallied(tally, prep.m, &prep.norm, done, stopped, empty))
}

/// [`draw_sampled`] without the table: each shot's one uniform is taken
/// in shot order, as there, and scaled to its point; the points are
/// sorted and their outcomes assigned in one more pass over the marginal
/// ([`CdfStream::outcomes`]). A shot's outcome is the table's for the
/// same uniform, so the tally is the one the table draws.
pub(super) fn draw_streamed(
    prep: &StreamedPrep,
    config: &TrajectoryConfig,
    empty: TrajectoryResult,
) -> Result<TrajectoryResult, QclabError> {
    // `route` streams only when 16 B per shot stay below the table
    let mut points = Vec::with_capacity(config.shots as usize);
    let (done, stopped) = each_shot(config, |rng| points.push(prep.stream.point(rng.f64())))?;
    points.sort_unstable_by(f64::total_cmp);
    let mut tally: BTreeMap<usize, u64> = BTreeMap::new();
    prep.stream.outcomes(
        &points,
        |f| prep.weights(f),
        |k| {
            *tally.entry(k).or_insert(0) += 1;
        },
    );
    let m = prep.measured.len();
    Ok(tallied(tally, m, &prep.norm, done, stopped, empty))
}

/// Hands `take` each shot's `(config.seed, shot)` stream in shot order,
/// polling `config.control` between shots: returns the shots taken and
/// what stopped the rest, if anything did.
fn each_shot(
    config: &TrajectoryConfig,
    mut take: impl FnMut(&mut Rng),
) -> Result<(u64, Option<StopCause>), QclabError> {
    let mut ticker = config.control.ticker();
    for shot in 0..config.shots {
        if let Err(e) = ticker.tick() {
            return Ok((shot, Some(stop_or_err(e)?)));
        }
        take(&mut shot_rng(config.seed, shot));
    }
    Ok((config.shots, None))
}

/// The result of `done` terminal draws tallied by outcome index, each
/// shot reporting the one-time evolution's watchdog statistics `norm`.
fn tallied(
    tally: BTreeMap<usize, u64>,
    m: usize,
    norm: &NormStats,
    done: u64,
    stopped: Option<StopCause>,
    empty: TrajectoryResult,
) -> TrajectoryResult {
    TrajectoryResult {
        shots: done,
        counts: render_outcomes(tally, m),
        norm: norm.times(done),
        stopped,
        ..empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut rng = Rng::seed_from_u64(seed);
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
        let mut rng = Rng::seed_from_u64(1);
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

    /// `weights` handed to a stream pass three at a time.
    fn slices(weights: &[f64]) -> impl FnOnce(Sink<'_>) + '_ {
        move |f| weights.chunks(3).for_each(f)
    }

    /// The stream's outcome of every point of `points` (sorted here)
    /// against the table's outcome of the same point.
    fn assert_stream_is_the_table(weights: &[f64], mut points: Vec<f64>) {
        let table = CdfTable::new(weights.to_vec()).unwrap();
        let stream = CdfStream::new(slices(weights)).unwrap();
        assert_eq!(stream.total.to_bits(), table.cum.last().unwrap().to_bits());
        points.sort_unstable_by(f64::total_cmp);
        let mut got = Vec::new();
        stream.outcomes(&points, slices(weights), |k| got.push(k));
        let want: Vec<usize> = points.iter().map(|&r| table.outcome(r)).collect();
        assert_eq!(got, want, "{weights:?}");
    }

    #[test]
    fn streamed_draws_are_the_tables_on_every_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        for len in [1usize, 2, 7, 64, 1000] {
            // zeros leading, trailing and in runs
            let weights: Vec<f64> = (0..len)
                .map(|i| {
                    if i == 0 || i + 1 == len || rng.f64() < 0.3 {
                        0.0
                    } else {
                        rng.f64() * 10.0
                    }
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                continue;
            }
            let table = CdfTable::new(weights.clone()).unwrap();
            let stream = CdfStream::new(slices(&weights)).unwrap();
            // each shot's one uniform, through `sample` and through the
            // stream: the same multiset of outcomes
            let seed = rng.next_u64();
            let mut tabled: Vec<usize> = {
                let mut draw = Rng::seed_from_u64(seed);
                (0..2000).map(|_| table.sample(&mut draw)).collect()
            };
            tabled.sort_unstable();
            let mut draw = Rng::seed_from_u64(seed);
            let mut points: Vec<f64> = (0..2000).map(|_| stream.point(draw.f64())).collect();
            points.sort_unstable_by(f64::total_cmp);
            let mut streamed = Vec::new();
            stream.outcomes(&points, slices(&weights), |k| streamed.push(k));
            assert_eq!(streamed, tabled, "len {len}");
            // every point on its own: ties, each running total exactly,
            // zero, the total itself and the largest uniform's point, which
            // may round to it (clamped onto the trailing zeros)
            let mut edges: Vec<f64> = table.cum.clone();
            let last = stream.point(1.0 - f64::EPSILON / 2.0);
            edges.extend([0.0, 0.0, *table.cum.last().unwrap(), last]);
            edges.extend(points.iter().take(5));
            edges.extend(points.iter().take(5));
            assert_stream_is_the_table(&weights, edges);
        }
        assert_stream_is_the_table(&[0.0, 1.0, 0.0, 0.0], vec![0.0, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn the_stream_refuses_what_the_table_refuses_in_the_same_words() {
        for bad in [
            vec![],
            vec![0.0, 0.0],
            vec![1.0, -0.5],
            vec![f64::NAN],
            vec![f64::INFINITY, 1.0],
            vec![f64::MAX, f64::MAX],
            // the first invalid weight is the one named, in a later slice
            vec![1.0, 2.0, 0.0, 3.0, -1.0, f64::NAN],
        ] {
            let table = CdfTable::new(bad.clone()).unwrap_err().to_string();
            let stream = CdfStream::new(slices(&bad)).unwrap_err().to_string();
            assert_eq!(stream, table, "{bad:?}");
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
