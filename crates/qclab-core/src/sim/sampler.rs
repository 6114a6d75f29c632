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
//! whose table no later run could draw from (over
//! [`RETAINED_BYTES_CAP`](crate::program::RETAINED_BYTES_CAP), or on a
//! plan nothing else keeps) and would cost more than its shots' points
//! draws from a `CdfStream` instead:
//! the same running total, read off the state rather than stored — a
//! serial total pass that records the total at every 4 096-outcome tile,
//! then a pass on `sim::par`'s team over only the tiles that hold a
//! point, each restarting the chain from its checkpoint — every point's
//! outcome the table's bit for bit.
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
use crate::sim::par;
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

/// Outcomes per tile of the running total: both samplers validate a
/// tile of weights at a time, and a [`CdfStream`] records the total at
/// every tile boundary (one `f64` per 4 096 outcomes).
pub(super) const TILE: usize = 1 << 12;

/// Weights a [`CdfStream`] reads in outcome order, a stretch at a time.
/// Any stretch can be read again, on any thread, and reads the same
/// weights bit for bit.
pub(crate) trait Weights: Sync {
    /// Number of outcomes.
    fn len(&self) -> usize;

    /// Writes the weights of outcomes `first..first + out.len()` to
    /// `out`; the stretch never crosses a multiple of [`TILE`].
    fn read(&self, first: usize, out: &mut [f64]);
}

/// Replaces each weight of `tile` by the running total through it,
/// starting from `sum`, and returns the new total: the one chain both
/// samplers add in outcome order. The tile is checked first, as a
/// whole; when a weight fails, the error names the tile's first failing
/// weight, which is the first in outcome order since every earlier
/// tile passed.
fn cumulate(sum: f64, tile: &mut [f64]) -> Result<f64, QclabError> {
    let valid = |w: f64| (0.0..=f64::MAX).contains(&w);
    if !tile.iter().fold(true, |ok, &w| ok & valid(w)) {
        let w = tile.iter().find(|&&w| !valid(w)).expect("a weight failed");
        return Err(QclabError::Unavailable(format!(
            "cannot sample from a distribution with weight {w}"
        )));
    }
    Ok(accumulate(sum, tile))
}

/// [`cumulate`]'s chain without the check, for weights that passed it.
fn accumulate(mut sum: f64, tile: &mut [f64]) -> f64 {
    for w in tile {
        sum += *w;
        *w = sum;
    }
    sum
}

/// The total of `len` weights, if they form a distribution.
fn total(sum: f64, len: usize) -> Result<f64, QclabError> {
    if len == 0 {
        return Err(QclabError::Unavailable(
            "cannot sample from an empty distribution".into(),
        ));
    }
    if !sum.is_finite() {
        return Err(QclabError::Unavailable(
            "cannot sample from a distribution whose total weight overflows".into(),
        ));
    }
    if sum <= 0.0 {
        return Err(QclabError::Unavailable(
            "cannot sample from an all-zero distribution".into(),
        ));
    }
    Ok(sum)
}

impl CdfTable {
    /// Turns (unnormalized) weights into their running totals in place:
    /// one pass that validates as it sums.
    pub fn new(mut weights: Vec<f64>) -> Result<Self, QclabError> {
        let mut sum = 0.0;
        for tile in weights.chunks_mut(TILE) {
            sum = cumulate(sum, tile)?;
        }
        total(sum, weights.len())?;
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

/// Outcomes a [`CdfStream`] reads at once: a 4 KiB buffer, and how far
/// past a tile's last point its outcome pass may read.
const BLOCK: usize = 1 << 9;

/// [`CdfTable`]'s draws without its table, for weights that can be read
/// again ([`Weights`]). [`new`](Self::new) is one serial pass that
/// validates the weights and sums them in outcome order — the table's
/// chain — recording the running total at every [`TILE`] boundary. A
/// run then draws all its shots at once: each shot's point `u · total`,
/// sorted, and [`outcomes`](Self::outcomes) hands the tiles that hold a
/// point to `sim::par`'s team, each restarting the chain from its
/// checkpoint and stopping at its last point. Every outcome — and every
/// validation error — is the table's, bit for bit.
#[derive(Clone, Debug)]
pub(crate) struct CdfStream {
    len: usize,
    total: f64,
    /// The running total before each tile: `starts[t]` sums the weights
    /// of tiles `0..t`.
    starts: Vec<f64>,
}

impl CdfStream {
    /// Validates and sums the weights in outcome order, recording the
    /// running total at every tile; the first invalid weight is the
    /// error.
    pub(crate) fn new(weights: impl Weights) -> Result<Self, QclabError> {
        let len = weights.len();
        let mut starts = Vec::with_capacity(len.div_ceil(TILE));
        let (mut sum, mut block) = (0.0, [0.0f64; BLOCK]);
        for first in (0..len).step_by(BLOCK) {
            if first % TILE == 0 {
                starts.push(sum);
            }
            let block = &mut block[..BLOCK.min(len - first)];
            weights.read(first, block);
            sum = cumulate(sum, block)?;
        }
        Ok(CdfStream {
            len,
            total: total(sum, len)?,
            starts,
        })
    }

    /// The point a uniform `u` in `[0, 1)` selects, as
    /// [`CdfTable::sample`] computes it.
    pub(crate) fn point(&self, u: f64) -> f64 {
        u * self.total
    }

    /// Emits the outcome of each point of `sorted` (ascending) in order,
    /// and returns how many weights it read. The outcome of `r` is the
    /// first whose running total exceeds it, which is [`CdfTable`]'s
    /// bisection: `r` falls in the first tile whose closing total exceeds
    /// it, and a point at or above the total is clamped to the last
    /// outcome. The tiles that hold a point run on up to `width` threads,
    /// each from its recorded checkpoint — the serial chain's totals bit
    /// for bit — reading a [`BLOCK`] at a time until its last point has
    /// its outcome.
    pub(crate) fn outcomes(
        &self,
        sorted: &[f64],
        weights: impl Weights,
        width: usize,
        mut emit: impl FnMut(usize),
    ) -> usize {
        let mut outcomes = vec![self.len - 1; sorted.len()];
        let mut busy = Vec::new();
        let (mut points, mut out) = (sorted, &mut outcomes[..]);
        for (t, &start) in self.starts.iter().enumerate() {
            let close = self.starts.get(t + 1).copied().unwrap_or(self.total);
            let here = points.partition_point(|&r| close > r);
            if here > 0 {
                let (these, later) = points.split_at(here);
                let (theirs, rest) = std::mem::take(&mut out).split_at_mut(here);
                let first = t * TILE;
                busy.push(BusyTile {
                    outcomes: first..(first + TILE).min(self.len),
                    start,
                    points: these,
                    out: theirs,
                    read: 0,
                });
                (points, out) = (later, rest);
            }
        }
        par::for_each_chunk(width, &mut busy, 1, |_, tile| {
            let BusyTile {
                outcomes,
                start,
                points,
                out,
                read,
            } = &mut tile[0];
            let (mut sum, mut next, mut block) = (*start, 0, [0.0f64; BLOCK]);
            for from in outcomes.clone().step_by(BLOCK) {
                let block = &mut block[..BLOCK.min(outcomes.end - from)];
                weights.read(from, block);
                *read += block.len();
                sum = accumulate(sum, block);
                for (k, &cum) in (from..).zip(block.iter()) {
                    while next < points.len() && cum > points[next] {
                        out[next] = k;
                        next += 1;
                    }
                }
                if next == points.len() {
                    break;
                }
            }
            debug_assert_eq!(
                next,
                points.len(),
                "the tile's closing total exceeds its points"
            );
        });
        let read = busy.iter().map(|tile| tile.read).sum();
        outcomes.into_iter().for_each(&mut emit);
        read
    }
}

/// A tile of a [`CdfStream`] that holds points, as its outcome pass
/// walks it.
struct BusyTile<'a> {
    /// The tile's outcomes.
    outcomes: std::ops::Range<usize>,
    /// The running total before the tile.
    start: f64,
    /// The points that fall in the tile, ascending, and their outcomes.
    points: &'a [f64],
    out: &'a mut [usize],
    /// Weights read so far.
    read: usize,
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
/// sorted and their outcomes assigned from the marginal
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
    prep.stream
        .outcomes(&points, prep.weights(), prep.width(config), |k| {
            *tally.entry(k).or_insert(0) += 1;
        });
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

    /// `weights` as a stream reads them, refusing a read across a tile.
    struct Slices<'a>(&'a [f64]);

    impl Weights for Slices<'_> {
        fn len(&self) -> usize {
            self.0.len()
        }

        fn read(&self, first: usize, out: &mut [f64]) {
            let last = first + out.len() - 1;
            assert_eq!(first / TILE, last / TILE, "a read across a tile");
            out.copy_from_slice(&self.0[first..=last]);
        }
    }

    fn slices(weights: &[f64]) -> Slices<'_> {
        Slices(weights)
    }

    /// The stream's outcomes of `sorted` on `width` threads.
    fn streamed(
        stream: &CdfStream,
        sorted: &[f64],
        weights: impl Weights,
        width: usize,
    ) -> Vec<usize> {
        let mut got = Vec::new();
        stream.outcomes(sorted, weights, width, |k| got.push(k));
        got
    }

    /// The stream's outcome of every point of `points` (sorted here)
    /// against the table's outcome of the same point, at one, two and
    /// four threads.
    fn assert_stream_is_the_table(weights: &[f64], mut points: Vec<f64>) {
        let table = CdfTable::new(weights.to_vec()).unwrap();
        let stream = CdfStream::new(slices(weights)).unwrap();
        assert_eq!(stream.total.to_bits(), table.cum.last().unwrap().to_bits());
        points.sort_unstable_by(f64::total_cmp);
        let want: Vec<usize> = points.iter().map(|&r| table.outcome(r)).collect();
        for width in [1, 2, 4] {
            let got = streamed(&stream, &points, slices(weights), width);
            assert_eq!(got, want, "width {width}, {} weights", weights.len());
        }
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
            assert_eq!(
                streamed(&stream, &points, slices(&weights), 1),
                tabled,
                "len {len}"
            );
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

    /// Weights over `len` outcomes: random, with zero runs, and tile 1
    /// and the last tile zero throughout.
    fn tiled_weights(len: usize, rng: &mut Rng) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let (tile, last) = (i / TILE, (len - 1) / TILE);
                if tile == 1 || tile == last || rng.f64() < 0.2 {
                    0.0
                } else {
                    rng.f64()
                }
            })
            .collect()
    }

    /// Points that probe every tile boundary: each checkpoint exactly and
    /// either side of it, zero, the total, past the total, and uniforms.
    fn boundary_points(stream: &CdfStream, rng: &mut Rng) -> Vec<f64> {
        let mut points: Vec<f64> = (0..500).map(|_| stream.point(rng.f64())).collect();
        for &c in stream.starts.iter().chain([&stream.total]) {
            points.extend([c, c, c.next_down(), c.next_up()]);
        }
        points.extend([0.0, stream.total, 1.5 * stream.total, f64::MAX]);
        points
    }

    #[test]
    fn checkpointed_draws_are_the_tables_across_tiles() {
        let mut rng = Rng::seed_from_u64(13);
        for len in [1usize << 13, 1 << 14] {
            let weights = tiled_weights(len, &mut rng);
            let stream = CdfStream::new(slices(&weights)).unwrap();
            assert_eq!(stream.starts.len(), len / TILE);
            // a whole tile of zeros closes where it opens
            let close = stream.starts.get(2).unwrap_or(&stream.total);
            assert_eq!(stream.starts[1].to_bits(), close.to_bits());
            let points = boundary_points(&stream, &mut rng);
            assert_stream_is_the_table(&weights, points);
        }
    }

    #[test]
    fn checkpointed_draws_of_a_marginal_are_the_tables() {
        use crate::sim::prep::{marginal, scatter_lut, tile_lut, Marginal};
        use qclab_math::scalar::C64;
        let mut rng = Rng::seed_from_u64(17);
        // (register, measured): the register's own order, read straight
        // off the state; a scrambled order of every qubit; a scrambled
        // part of the register
        let mut scrambled = |n: usize, m: usize| {
            let mut q: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                q.swap(i, rng.below(i + 1));
            }
            q.truncate(m);
            q
        };
        let cases = [
            (13, (0..13).collect()),
            (14, scrambled(14, 14)),
            (15, scrambled(15, 13)),
            (16, scrambled(16, 14)),
        ];
        for (n, measured) in cases {
            // whole tiles of zero amplitudes, then random ones
            let state: Vec<C64> = (0..1usize << n)
                .map(|i| {
                    if i >> 12 == 1 {
                        C64::new(0.0, 0.0)
                    } else {
                        C64::new(rng.f64() - 0.5, rng.f64() - 0.5)
                    }
                })
                .collect();
            let weights = marginal(&state, &measured, n, &tile_lut(&measured, n));
            let table = CdfTable::new(weights.clone()).unwrap();
            let lut = scatter_lut(&measured, n);
            let source = Marginal::new(&state, &measured, n, &lut);
            let stream = CdfStream::new(source).unwrap();
            assert_eq!(stream.total.to_bits(), table.cum.last().unwrap().to_bits());
            let mut points = boundary_points(&stream, &mut rng);
            points.sort_unstable_by(f64::total_cmp);
            let want: Vec<usize> = points.iter().map(|&r| table.outcome(r)).collect();
            for width in [1, 2, 4] {
                let got = streamed(&stream, &points, source, width);
                assert_eq!(got, want, "n={n} {measured:?}, width {width}");
            }
        }
    }

    #[test]
    fn a_one_shot_draw_reads_at_most_one_tile() {
        // the parent's outcome pass read every weight: 65 536 here
        let mut rng = Rng::seed_from_u64(5);
        let weights: Vec<f64> = (0..1usize << 16).map(|_| rng.f64()).collect();
        let table = CdfTable::new(weights.clone()).unwrap();
        let stream = CdfStream::new(slices(&weights)).unwrap();
        for _ in 0..50 {
            let point = [stream.point(rng.f64())];
            let mut got = Vec::new();
            let read = stream.outcomes(&point, slices(&weights), 1, |k| got.push(k));
            let k = table.outcome(point[0]);
            assert_eq!(got, [k]);
            // the blocks of the point's tile up to the one holding it
            assert_eq!(read, (k % TILE / BLOCK + 1) * BLOCK);
            assert!(read <= TILE);
        }
        // no point, no read; a point past the total reads nothing either
        assert_eq!(stream.outcomes(&[], slices(&weights), 1, |_| ()), 0);
        let past = [2.0 * stream.total];
        assert_eq!(stream.outcomes(&past, slices(&weights), 1, |_| ()), 0);
    }

    #[test]
    fn an_overflowing_total_is_not_an_all_zero_distribution() {
        let e = CdfTable::new(vec![f64::MAX, f64::MAX]).unwrap_err();
        assert!(e.to_string().contains("total weight overflows"), "{e}");
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
