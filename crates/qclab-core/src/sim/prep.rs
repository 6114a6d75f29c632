//! The prep stage: takes a [`Route`] and returns its seed-independent
//! preparation ([`prepare`]), which [`Prepared::run`] turns into shots.
//!
//! **A terminal measurement is one draw, not `n` collapses.** When a
//! program ends in measurements of pairwise-distinct qubits
//! ([`ShotPlan::terminal_measurements`](crate::program::ShotPlan)) and
//! no observable needs the post-measurement state, a shot's record is
//! one function of (the state at the block, one uniform from the shot's
//! `(seed, shot)` stream): rotate the measured qubits into their bases,
//! take the joint marginal, prefix-sum it ([`CdfTable`]), bisect. A run
//! builds that table **once** from the noiseless evolution and may keep
//! it on the plan ([`PrepSlot`]); a noiseless run draws every shot from
//! it — or, when no plan could keep it, from the rotated state
//! ([`StreamedPrep`], outcomes bit for bit the table's) — and a noisy
//! ensemble hands it to its lanes. A lane's RNG draws come in one order
//! on every path ([`super::walk`]): the walk's first gaps → each hit's
//! draws where the schedule reaches it (readout hits in measurement
//! order) → one outcome uniform.

use crate::error::QclabError;
use crate::program::{self, CompiledProgram};
use crate::sim::frame;
use crate::sim::kernel::{self, KernelConfig};
use crate::sim::route::{ends_in_draw, Route, TerminalDraw};
use crate::sim::sampler::{draw_sampled, draw_streamed, CdfStream, CdfTable, Sink};
use crate::sim::shots::{evolve_prefix, run_ensemble, ShotProgram, TerminalBlock};
use crate::sim::sparse;
use crate::sim::trajectory::{
    NormStats, ShotPath, TrajectoryConfig, TrajectoryResult, WatchdogConfig,
};
use crate::sim::walk::NoisePlan;
use crate::sim::{walk_branches, Simulation};
use qclab_math::rng::Rng;
use qclab_math::scalar::C64;
use qclab_math::{bits, CVec};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// `true` when a preparation of `bytes` may be kept on its plan (at
/// most [`program::RETAINED_BYTES_CAP`]): the rule that decides both
/// whether a plan keeps a table ([`PrepSlot`]) and whether a noiseless
/// run streams its draw instead of building one
/// ([`TerminalDraw::Streamed`]).
pub(crate) fn retainable(bytes: u128) -> bool {
    bytes <= program::RETAINED_BYTES_CAP as u128
}

/// The shared, seed-independent preparation of a run that ends in a
/// terminal measurement block: the noiseless evolution reduced to the
/// [`CdfTable`] of the measured-qubit marginal. Building it is the
/// `O(2^n · gates)` (dense) or support-sized (sparse) part of the run;
/// a draw from it is one bisection keyed only by `(seed, shot)` — so one
/// prep can serve every shot of a noiseless run, every error-free lane
/// of a noisy one and, retained on the plan ([`PrepSlot`]), later runs,
/// with every run's draws bit-identical to a cold run.
pub(super) struct SampledPrep {
    /// Outcome index for each sampler slot; `None` means the identity
    /// (the dense path's sampler covers the full `2^m` marginal).
    outcomes: Option<Vec<usize>>,
    sampler: CdfTable,
    /// Measured-qubit count — the record width.
    pub(super) m: usize,
    /// Watchdog statistics of the one-time prefix evolution (dense
    /// path; the sparse executor has no norm watchdog).
    pub(super) norm: NormStats,
    /// Most live entries the sparse prefix evolution held (0 on the
    /// dense path): a run served from a retained prep still answers to
    /// its own `ResourceLimits::check_sparse_entries`.
    peak_entries: u128,
}

/// The measured-qubit outcome bits of every index within one sweep
/// tile — the low half of [`marginal`]'s index split.
pub(super) fn tile_lut(measured: &[usize], n: usize) -> Vec<usize> {
    (0..1usize << kernel::SWEEP_TILE_QUBITS.min(n))
        .map(|j| bits::gather_bits(j, measured, n))
        .collect()
}

/// Joint Z-basis marginal of `state` over the `measured` qubits (first
/// listed qubit = most significant outcome bit). `gather_bits`
/// distributes over disjoint bit sets, so the outcome of index
/// `base | j` is `gather(base) | gather(j)`: one table over the low tile
/// bits (`lut`, their [`tile_lut`]) replaces the per-amplitude bit loop
/// (the same split [`kernel::permute_state`] uses). Amplitudes are
/// accumulated in index order, so the sums are bit-identical to the
/// plain loop.
pub(super) fn marginal(state: &[C64], measured: &[usize], n: usize, lut: &[usize]) -> Vec<f64> {
    let tile = lut.len();
    let mut probs = vec![0.0f64; 1usize << measured.len()];
    for (ti, chunk) in state.chunks(tile).enumerate() {
        let hi = bits::gather_bits(ti * tile, measured, n);
        for (amp, &lo) in chunk.iter().zip(lut) {
            probs[hi | lo] += amp.norm_sqr();
        }
    }
    probs
}

/// [`marginal`]'s entries in outcome order without its vector: calls `f`
/// on each tile of `lut.len()` consecutive outcomes. Outcome `k` sums
/// `|amp|²` over the indices that gather to `k` in increasing index — the
/// order `marginal` adds them in — so each weight is its entry there bit
/// for bit. `scatter_bits` distributes over disjoint bit sets, so the
/// first index of outcome `hi | lo` is `scatter(hi) | lut[lo]` (`lut` the
/// measured qubits' [`scatter_lut`]), and the others add every setting of
/// the unmeasured bits in turn.
fn marginal_tiles(state: &[C64], measured: &[usize], n: usize, lut: &[usize], f: Sink<'_>) {
    let rest = (state.len() - 1) & !bits::scatter_bits(0, usize::MAX, measured, n);
    let mut tile = vec![0.0f64; lut.len()];
    for hi in (0..1usize << measured.len()).step_by(lut.len()) {
        let base = bits::scatter_bits(0, hi, measured, n);
        tile.fill(0.0);
        let mut u = 0usize;
        loop {
            for (w, &lo) in tile.iter_mut().zip(lut) {
                *w += state[base | lo | u].norm_sqr();
            }
            if u == rest {
                break;
            }
            u = ((u | !rest) + 1) & rest;
        }
        f(&tile);
    }
}

/// The first index of each outcome within one tile of outcomes — the
/// low half of [`marginal_tiles`]' index split.
fn scatter_lut(measured: &[usize], n: usize) -> Vec<usize> {
    (0..1usize << kernel::SWEEP_TILE_QUBITS.min(measured.len()))
        .map(|lo| bits::scatter_bits(0, lo, measured, n))
        .collect()
}

/// A streamed terminal draw's preparation ([`TerminalDraw::Streamed`]):
/// the noiseless evolution rotated into the measured bases, and the
/// running total of its marginal. It is the run's one state vector, so
/// no plan keeps it.
pub(super) struct StreamedPrep {
    state: CVec,
    n: usize,
    pub(super) measured: Vec<usize>,
    /// [`scatter_lut`] of `measured`.
    lut: Vec<usize>,
    pub(super) stream: CdfStream,
    /// Watchdog statistics of the one-time evolution.
    pub(super) norm: NormStats,
}

impl StreamedPrep {
    /// Hands the marginal's weights to `f` in outcome order, read off the
    /// state.
    pub(super) fn weights(&self, f: Sink<'_>) {
        marginal_tiles(&self.state, &self.measured, self.n, &self.lut, f)
    }
}

/// Prepares the terminal draw of a dense run: the program is a unitary
/// prefix followed only by measurements of pairwise-distinct qubits (plus
/// fences), and no observable is requested. Evolves the noiseless state
/// once and tabulates it ([`ShotState::terminal_table`](super::shots::ShotState::terminal_table)) — or, when
/// `streamed`, keeps it rotated with its marginal's total.
fn terminal_prep(
    program: &CompiledProgram,
    initial: CVec,
    config: &TrajectoryConfig,
    streamed: bool,
) -> Result<Prepared, QclabError> {
    let block = TerminalBlock::of(program);
    // one-time evolution: the parallel kernels are allowed here, and
    // leave the bits a shot's own single-threaded evolution leaves
    let mut s = evolve_prefix(program, block.first, initial, config, config.kernel)?;
    if streamed {
        s.rotate_terminal(&block);
        let lut = scatter_lut(&block.measured, s.n);
        let stream = CdfStream::new(|f| marginal_tiles(&s.state, &block.measured, s.n, &lut, f))?;
        return Ok(Prepared::Streamed(Box::new(StreamedPrep {
            n: s.n,
            state: s.state,
            measured: block.measured,
            lut,
            stream,
            norm: s.stats,
        })));
    }
    Ok(Prepared::Sampled(Arc::new(SampledPrep {
        outcomes: None,
        sampler: s.terminal_table(&block)?,
        m: block.measured.len(),
        norm: s.stats,
        peak_entries: 0,
    })))
}

/// Sparse variant of [`terminal_prep`]: the prefix is evolved on the
/// sparse executor from `|0…0⟩` and the joint marginal accumulated over
/// the *live entries only* (keyed and sorted, so the sampler's outcome
/// order is deterministic). A dense `2^n` buffer never exists, so
/// 30+ qubit low-entanglement programs sample in support-sized memory.
/// [`route`](super::route::route) has validated the noise spec and the sparse register.
fn sparse_prep(
    program: &CompiledProgram,
    config: &TrajectoryConfig,
) -> Result<Prepared, QclabError> {
    let n = program.nb_qubits();
    let ops = &program.ops()[..program.shot_plan().prefix_ops];
    let mut prefix = Simulation::start(n, sparse::SparseState::basis_state(n, 0));
    let mut ticker = config.control.ticker();
    // `ShotPlan::classify` ends the prefix at the first measurement or
    // reset, so the walk never splits its one branch
    let peak_entries = walk_branches(
        &mut prefix.branches,
        ops,
        &(),
        &config.limits,
        n,
        &mut ticker,
    )?;
    let mut state = prefix.branches.swap_remove(0).state;
    let block = TerminalBlock::of(program);
    for vdg in &block.rotations {
        state.apply_gate(vdg);
    }
    let measured = &block.measured;
    // joint marginal over the live support, summed in the map's fixed
    // order; BTreeMap gives the sampler an outcome order independent of it
    let mut marginal: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, amp) in state.iter() {
        *marginal
            .entry(bits::gather_bits(i, measured, n))
            .or_insert(0.0) += amp.norm_sqr();
    }
    let weights: Vec<f64> = marginal.values().copied().collect();
    Ok(Prepared::Sampled(Arc::new(SampledPrep {
        outcomes: Some(marginal.into_keys().collect()),
        sampler: CdfTable::new(weights)?,
        m: measured.len(),
        norm: NormStats::default(),
        peak_entries,
    })))
}

/// The seed-independent half of a run — everything [`prepare`] pays
/// once for its route, before any shot is drawn.
pub(super) enum Prepared {
    /// Noiseless terminal program, dense or sparse: every shot is a draw
    /// from the table. Shared, never copied: the same value serves the
    /// run that built it and, when the plan retains it ([`PrepSlot`]),
    /// every later run.
    Sampled(Arc<SampledPrep>),
    /// Noiseless dense terminal program drawn by streaming
    /// ([`TerminalDraw::Streamed`]).
    Streamed(Box<StreamedPrep>),
    /// Pauli-frame engine over the plan's cached frame stream.
    Frames(Arc<frame::FrameProgram>),
    /// Forked or per-shot state-vector ensemble.
    Shots(Box<ShotProgram>),
}

impl SampledPrep {
    /// One terminal outcome (measurement `j` is bit `m−1−j`) from one
    /// uniform of `rng`.
    pub(super) fn draw(&self, rng: &mut Rng) -> usize {
        let slot = self.sampler.sample(rng);
        self.outcomes
            .as_ref()
            .map_or(slot, |outcomes| outcomes[slot])
    }

    /// Bytes a plan holds on to by retaining this preparation: the
    /// sampler and its outcome list.
    fn bytes(&self) -> usize {
        let outcomes = self.outcomes.as_ref().map_or(0, Vec::len);
        self.sampler.bytes() + outcomes * std::mem::size_of::<usize>()
    }
}

/// What a retained preparation was built under: what its builder reads
/// of the configuration beyond the plan's own options, seed, shots,
/// control and limits (checked on every run, hit or miss). A plan has
/// one preparation whatever the route: the sparse table, or the dense
/// noiseless table a noisy run hands to its lanes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PrepKey {
    /// The kernel and watchdog configuration a dense prefix was evolved
    /// under; `None` on the sparse route, which reads neither.
    dense: Option<(KernelConfig, WatchdogConfig)>,
}

/// The slot of a [`CompiledProgram`] that retains the seed-independent
/// preparation of sampled runs from `|0…0⟩`, so a circuit the process
/// has been asked for twice costs its shots only: the plan cache keeps
/// a plan, and with it this slot, once its circuit comes back
/// ([`program::compile`]); a plan asked for once keeps its slot only
/// while a caller holds it. Only [`Prepared::Sampled`]
/// is ever kept: `Frames` is cached by [`CompiledProgram::frame_program`]
/// already, a fork snapshot saved nothing measurable
/// (EXPERIMENTS F12) and a per-shot start is the initial state itself.
/// First come, first kept: a run under
/// another [`PrepKey`] computes its own preparation and leaves the slot
/// alone, and one over [`program::RETAINED_BYTES_CAP`] is never kept.
/// The slot dies with its plan (its last holder, LRU eviction,
/// [`program::clear_plan_cache`]).
#[derive(Clone, Default)]
pub(crate) struct PrepSlot(OnceLock<(PrepKey, Arc<SampledPrep>)>);

impl PrepSlot {
    fn get(&self, key: &PrepKey) -> Option<Arc<SampledPrep>> {
        let kept = self.0.get().filter(|(k, _)| k == key);
        program::cache::count_prep(kept.is_some());
        kept.map(|(_, prep)| Arc::clone(prep))
    }

    /// Keeps `prep` if it is small enough and the slot is still empty.
    /// Racing cold runs each compute; one is kept.
    fn offer(&self, key: PrepKey, prep: &Arc<SampledPrep>) {
        if retainable(prep.bytes() as u128) {
            let _ = self.0.set((key, Arc::clone(prep)));
        }
    }

    /// Bytes the slot retains (0 when empty).
    pub(crate) fn bytes(&self) -> usize {
        self.0.get().map_or(0, |(_, prep)| prep.bytes())
    }
}

impl fmt::Debug for PrepSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrepSlot")
            .field("key", &self.0.get().map(|(k, _)| k))
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// The plan's retained sampled preparation for `key`, or — on a miss, or
/// with no key (an explicit initial state) — the one `build` computes,
/// offered to the plan. The flag says which.
fn retained_or(
    program: &CompiledProgram,
    key: Option<PrepKey>,
    build: impl FnOnce() -> Result<Prepared, QclabError>,
) -> Result<(Prepared, bool), QclabError> {
    let Some(key) = key else {
        return Ok((build()?, false));
    };
    if let Some(prep) = program.prep().get(&key) {
        return Ok((Prepared::Sampled(prep), true));
    }
    let prep = build()?;
    if let Prepared::Sampled(p) = &prep {
        program.prep().offer(key, p);
    }
    Ok((prep, false))
}

/// Performs `route`'s one-time preparation (which never consults the
/// seed or the shot count), or — for a terminal table — takes it from
/// the plan ([`PrepSlot`]): only the `O(2^n)` allocation and evolution
/// are skipped then. The flag is `true` when the plan supplied it. A
/// control stop comes back as its error: no shot exists yet.
pub(super) fn prepare(
    route: &Route,
    initial: Option<&CVec>,
    config: &TrajectoryConfig,
) -> Result<(Prepared, bool), QclabError> {
    let program = &route.program;
    let n = program.nb_qubits();
    // what a plan can key on: a run from `|0…0⟩`, not an explicit
    // initial state
    let key = |dense| initial.is_none().then_some(PrepKey { dense });
    let dense = Some((config.kernel, config.watchdog));
    // only a preparation that is actually computed allocates its state
    let initial_state = || initial.map_or_else(|| CVec::basis_state(1 << n, 0), CVec::clone);
    let prefix_ops = match route.path {
        ShotPath::PauliFrame => {
            let frames = program
                .frame_program()
                .expect("route() lowered the frame stream");
            return Ok((Prepared::Frames(frames), false));
        }
        ShotPath::SparseSampled { .. } => {
            let (prep, hit) = retained_or(program, key(None), || sparse_prep(program, config))?;
            if let Prepared::Sampled(p) = &prep {
                config.limits.check_sparse_entries(n, p.peak_entries)?;
            }
            return Ok((prep, hit));
        }
        ShotPath::AliasSampled { .. } => {
            let streamed = route.draw == Some(TerminalDraw::Streamed);
            return retained_or(program, key(dense), || {
                terminal_prep(program, initial_state(), config, streamed)
            });
        }
        ShotPath::Forked { prefix_ops } => prefix_ops,
        ShotPath::PerShot => 0,
    };
    let (mut shared, mut prep_hit) = (None, false);
    if route.shares_table {
        let table = || terminal_prep(program, initial_state(), config, false);
        if let (Prepared::Sampled(table), hit) = retained_or(program, key(dense), table)? {
            (shared, prep_hit) = (Some(table), hit);
        }
    }
    // the prefix runs under the kernel config of the shots themselves,
    // so the snapshot is bit-identical to what each unforked shot would
    // have computed: single-threaded, whether or not the shots fan out —
    // the fan-out is the parallelism, and a serial run asked for none
    let kernel = KernelConfig {
        allow_parallel: false,
        ..config.kernel
    };
    let start = evolve_prefix(program, prefix_ops, initial_state(), config, kernel)?;
    // the layout the stream left the snapshot in is the one lowering
    // published for the end of the prefix
    debug_assert!(prefix_ops == 0 || start.map.as_deref() == program.prefix_map());
    let shots = ShotProgram {
        noise: NoisePlan::new(program, &config.noise),
        start,
        terminal: ends_in_draw(program, config).then(|| TerminalBlock::of(program)),
        shared,
    };
    Ok((Prepared::Shots(Box::new(shots)), prep_hit))
}

impl Prepared {
    /// Samples `config.shots` shots of `route` from the preparation.
    pub(super) fn run(
        &self,
        route: &Route,
        config: &TrajectoryConfig,
    ) -> Result<TrajectoryResult, QclabError> {
        let empty = TrajectoryResult::empty(route, config);
        match self {
            Prepared::Sampled(prep) => draw_sampled(prep, config, empty),
            Prepared::Streamed(prep) => draw_streamed(prep, config, empty),
            Prepared::Frames(frames) => frame::run_frames(&route.program, frames, config, empty),
            Prepared::Shots(prog) => run_ensemble(&route.program, prog, config, empty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::QCircuit;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use crate::sim::route::route;

    #[test]
    fn streamed_marginal_tiles_are_the_marginals() {
        // measured subsets in shuffled order, m < n and m = n, on both
        // sides of the lookup tile: every weight bit for bit
        let mut rng = Rng::seed_from_u64(9);
        for n in [1usize, 3, 7, 12, 13, 15] {
            let mut state: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.f64() - 0.5, rng.f64() - 0.5))
                .collect();
            // zero runs: empty outcomes between live ones
            for z in state.iter_mut().step_by(3) {
                *z = C64::new(0.0, 0.0);
            }
            for _ in 0..8 {
                let mut measured: Vec<usize> = (0..n).filter(|_| rng.bool()).collect();
                if rng.bool() {
                    measured = (0..n).collect();
                }
                for i in (1..measured.len()).rev() {
                    measured.swap(i, rng.below(i + 1));
                }
                let table = marginal(&state, &measured, n, &tile_lut(&measured, n));
                let lut = scatter_lut(&measured, n);
                let mut streamed = Vec::new();
                marginal_tiles(&state, &measured, n, &lut, &mut |tile| {
                    streamed.extend_from_slice(tile)
                });
                let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&streamed), bits(&table), "n={n} {measured:?}");
            }
        }
    }

    #[test]
    fn a_streamed_run_draws_what_its_table_draws() {
        // the same prepared evolution drawn both ways, measured qubits
        // in shuffled order and three bases, and zero shots
        let n = 13;
        let mut c = QCircuit::new(n);
        for q in 0..n {
            c.push_back(RotationY::new(q, 0.3 + 0.17 * q as f64));
        }
        for q in 1..n {
            c.push_back(CNOT::new(q - 1, q));
        }
        for (i, q) in [7, 2, 11, 0, 5, 9, 12, 3, 1, 8].into_iter().enumerate() {
            c.push_back(match i % 3 {
                0 => Measurement::z(q),
                1 => Measurement::x(q),
                _ => Measurement::y(q),
            });
        }
        let config = TrajectoryConfig {
            shots: 5000,
            seed: 21,
            ..TrajectoryConfig::default()
        };
        let routed = route(&c, &config, None).unwrap();
        assert!(matches!(routed.path, ShotPath::AliasSampled { .. }));
        assert_eq!(routed.draw, Some(TerminalDraw::Table { bytes: 8 << 10 }));
        let initial = || CVec::basis_state(1 << n, 0);
        let prep = |streamed| terminal_prep(&routed.program, initial(), &config, streamed).unwrap();
        for config in [
            config.clone(),
            TrajectoryConfig {
                shots: 0,
                ..config.clone()
            },
        ] {
            let tabled = prep(false).run(&routed, &config).unwrap();
            let streamed = prep(true).run(&routed, &config).unwrap();
            assert!(matches!(prep(true), Prepared::Streamed(_)));
            assert_eq!(streamed.counts(), tabled.counts());
            assert_eq!(streamed.shots(), tabled.shots());
            assert_eq!(streamed.norm_stats(), tabled.norm_stats());
        }
    }

    #[test]
    fn marginal_equals_the_per_amplitude_gather_loop() {
        // random states, measured subsets in random order, registers on
        // both sides of the lookup tile — sums must match bit for bit
        let mut rng = Rng::seed_from_u64(7);
        for n in [1usize, 3, 7, 12, 13, 15] {
            let state: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.f64() - 0.5, rng.f64() - 0.5))
                .collect();
            for _ in 0..8 {
                let mut measured: Vec<usize> = (0..n).filter(|_| rng.bool()).collect();
                for i in (1..measured.len()).rev() {
                    measured.swap(i, (rng.f64() * (i + 1) as f64) as usize);
                }
                let mut reference = vec![0.0f64; 1 << measured.len()];
                for (i, amp) in state.iter().enumerate() {
                    reference[bits::gather_bits(i, &measured, n)] += amp.norm_sqr();
                }
                assert_eq!(
                    marginal(&state, &measured, n, &tile_lut(&measured, n)),
                    reference,
                    "n={n} {measured:?}"
                );
            }
        }
    }
}
