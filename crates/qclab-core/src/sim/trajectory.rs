//! Stochastic Pauli-channel fault injection on the state-vector kernels
//! (quantum trajectories).
//!
//! The density-matrix backend ([`super::density`]) represents a noisy
//! `n`-qubit register exactly but pays `4^n` memory — it caps out around
//! 13–14 qubits under the default resource limits. Trajectory sampling
//! keeps noisy workloads on the optimized `2^n` state-vector path
//! instead: each *shot* runs the circuit once, and every noise
//! location that fires in it injects a concrete Pauli error as an
//! ordinary gate. Which locations fire is the shot's *noise walk*
//! ([`super::walk`]): geometric gaps from hit to hit on the shot's
//! `(seed, shot)` stream, so a shot pays for its hits, not its sites.
//! Averaging counts/expectations over shots converges to the
//! density-matrix result at `O(1/√shots)` — the standard Monte-Carlo
//! unraveling of a Pauli channel.
//!
//! Structure: [`route`] decides a run once, before anything is allocated
//! (sparse → Pauli frames → terminal table → fork/per-shot), `prepare`
//! pays that route's seed-independent preparation, `Prepared::run`
//! samples the shots. Every state-vector shot — one-time prefix, batch reference
//! pass, lane suffix, [`run_single_trajectory`] — dispatches the plan's
//! bytecode stream ([`super::bytecode`]) through one per-instruction
//! body, `ShotState::step`; serial execution is the batch of one.
//!
//! **One plan, noisy or not.** A noisy shot executes the same fused,
//! relabeled plan a noiseless one does (they share its plan-cache entry,
//! bytecode and retained terminal table). Noise sites stay numbered on
//! the *source* schedule, so a lane first takes its draws in source
//! order as far as its last hit (`NoisePlan::draw_shot`: the hits, and
//! the uniform of every collapse among them), maps each hit to where it
//! lands in the plan
//! (`walk::Landings`) and sorts them — fusion merges gates backward, so
//! landing order is not stream order — and only then executes. A hit
//! between two ops is a Pauli between two kernels; an op with a hit
//! *inside* it is replayed from its source gates, that op only.
//!
//! **A terminal measurement is one draw, not `n` collapses.** When a
//! program ends in measurements of pairwise-distinct qubits
//! ([`ShotPlan::terminal_measurements`](crate::program::ShotPlan)) and
//! no observable needs the post-measurement state, a shot's record is
//! one function of (the state at the block, one uniform from the shot's
//! `(seed, shot)` stream): rotate the measured qubits into their bases,
//! take the joint marginal, prefix-sum it
//! ([`CdfTable`]), bisect
//! (`ShotState::terminal_table`). Who pays for the table is all that
//! differs between paths: a run builds it **once** from the noiseless
//! evolution (and may keep it on the plan, `PrepSlot`); a noiseless
//! run draws every shot from it — or, when no plan could keep it, from
//! the rotated state, its shots' points sorted and matched in one more
//! pass over the marginal ([`TerminalDraw::Streamed`], outcomes bit for
//! bit the table's); a noisy lane whose walk has no hit is
//! still *exactly* that state and draws from it too — no clone, no
//! kernel, no state; only a lane that injected an error builds the
//! table of its own state. A lane's RNG draws come in one order on
//! every path ([`super::walk`]): the walk's first gaps → each hit's
//! draws where the schedule reaches it (readout hits in measurement
//! order) → one outcome uniform. Per-qubit collapse (`ShotState::sample_z`) remains where a
//! post-measurement state is consumed: mid-circuit measurements,
//! resets, observables, [`run_single_trajectory`].
//!
//! Guarantees this module is tested for:
//!
//! - **Determinism** — every shot derives its RNG from
//!   `(config.seed, shot index)`, so results are independent of thread
//!   scheduling and reproducible across runs.
//! - **Exactness at zero noise** — with an empty [`NoiseSpec`] a shot
//!   performs bit-for-bit the same kernel calls as the baseline
//!   simulator ([`QCircuit::simulate_with`]).
//! - **No aborts** — the register is checked against
//!   [`ResourceLimits`] before any `1 << n` allocation, and malformed
//!   noise specs come back as [`QclabError::InvalidNoiseSpec`].
//! - **Norm watchdog** — long gate sequences accumulate rounding drift;
//!   an optional watchdog monitors the state norm every few gates,
//!   renormalizes past a tolerance, and reports drift statistics.
//!
//! ```
//! use qclab_core::sim::trajectory::{run_trajectories, NoiseSpec, PauliChannel,
//!                                   TrajectoryConfig};
//! use qclab_core::QCircuit;
//! use qclab_core::gates::factories::*;
//! use qclab_core::measurement::Measurement;
//!
//! let mut bell = QCircuit::new(2);
//! bell.push_back(Hadamard::new(0));
//! bell.push_back(CNOT::new(0, 1));
//! bell.push_back(Measurement::z(0));
//! bell.push_back(Measurement::z(1));
//!
//! let config = TrajectoryConfig {
//!     shots: 200,
//!     noise: NoiseSpec {
//!         after_gate: Some(PauliChannel::Depolarizing(0.01)),
//!         ..NoiseSpec::default()
//!     },
//!     ..TrajectoryConfig::default()
//! };
//! let result = run_trajectories(&bell, &config).unwrap();
//! assert_eq!(result.total_counts(), 200);
//! ```

use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::{Basis, Measurement};
use crate::observable::{Observable, Pauli};
use crate::program::{
    self, BackendChoice, BackendRequest, CompiledProgram, PlanOptions, ProgramOp,
};
use crate::sim::bytecode::{Bytecode, Instr};
use crate::sim::control::{ControlTicker, ExecutionControl, StopCause, StopLatch};
use crate::sim::frame;
use crate::sim::guard::ResourceLimits;
use crate::sim::kernel::KernelConfig;
use crate::sim::sampler::{CdfStream, CdfTable, Sink};
use crate::sim::sparse;
use crate::sim::walk::{Landing, NoisePlan, ShotDraws};
use crate::sim::{collapse, kernel, par, walk_branches, Simulation};
use qclab_math::scalar::C64;
use qclab_math::{bits, CVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A single-qubit Pauli error channel, sampled per noise location.
///
/// Unlike [`super::density::NoiseChannel`] this is restricted to Pauli
/// (probabilistic-unitary) channels — exactly the family that admits
/// trajectory unraveling by gate injection. Amplitude damping needs the
/// full Kraus treatment and stays on the density-matrix backend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PauliChannel {
    /// X with probability `p`.
    BitFlip(f64),
    /// Z with probability `p`.
    PhaseFlip(f64),
    /// X, Y or Z each with probability `p/3`.
    Depolarizing(f64),
}

impl PauliChannel {
    /// The total error probability of the channel.
    pub fn probability(&self) -> f64 {
        match *self {
            PauliChannel::BitFlip(p)
            | PauliChannel::PhaseFlip(p)
            | PauliChannel::Depolarizing(p) => p,
        }
    }

    /// True when the channel can ever fire (`p > 0`). The one predicate
    /// both routing and the noise walk read: a channel that cannot fire
    /// is a channel that is not configured, on every path.
    pub(crate) fn can_fire(&self) -> bool {
        self.probability() > 0.0
    }

    /// Checks that the probability lies in `[0, 1]`.
    pub fn validate(&self) -> Result<(), QclabError> {
        let p = self.probability();
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(QclabError::InvalidNoiseSpec(format!(
                "channel probability {p} outside [0, 1]"
            )))
        }
    }

    /// The equivalent density-matrix channel (used by the
    /// trajectory-vs-density cross-validation).
    pub fn to_density_channel(&self) -> super::density::NoiseChannel {
        match *self {
            PauliChannel::BitFlip(p) => super::density::NoiseChannel::BitFlip(p),
            PauliChannel::PhaseFlip(p) => super::density::NoiseChannel::PhaseFlip(p),
            PauliChannel::Depolarizing(p) => super::density::NoiseChannel::Depolarizing(p),
        }
    }
}

/// Where noise strikes during a trajectory. All fields default to `None`
/// (noiseless); each one is sampled independently per qubit per location.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseSpec {
    /// Applied to every qubit a gate touches, right after the gate —
    /// the per-gate counterpart of
    /// [`super::density::NoiseModel::after_gate`].
    pub after_gate: Option<PauliChannel>,
    /// Applied to every qubit a gate does *not* touch, at the same
    /// location (idle/memory noise while the gate executes elsewhere).
    pub idle: Option<PauliChannel>,
    /// Applied to the measured qubit right before each measurement or
    /// reset (readout noise).
    pub before_measure: Option<PauliChannel>,
}

impl NoiseSpec {
    /// True when no channel can fire (none configured, or only at
    /// probability 0) — the trajectory then follows the baseline
    /// simulator bit for bit.
    pub fn is_noiseless(&self) -> bool {
        !self.strikes_gates() && !self.before_measure.is_some_and(|ch| ch.can_fire())
    }

    /// True when every gate is a noise site (an `after_gate` or `idle`
    /// channel can fire): no stretch of gates is deterministic.
    fn strikes_gates(&self) -> bool {
        [self.after_gate, self.idle]
            .into_iter()
            .flatten()
            .any(|ch| ch.can_fire())
    }

    /// Validates every configured channel.
    pub fn validate(&self) -> Result<(), QclabError> {
        for ch in [self.after_gate, self.idle, self.before_measure]
            .into_iter()
            .flatten()
        {
            ch.validate()?;
        }
        Ok(())
    }
}

/// Norm-drift watchdog configuration. Floating-point rounding makes the
/// state norm drift over long gate sequences; the watchdog measures the
/// norm every [`check_every`](Self::check_every) gate applications (plus
/// once at the end of each shot), renormalizes when the drift exceeds
/// [`tol`](Self::tol), and reports [`NormStats`]. A gate application is
/// one gate op of the executed plan — a fused block counts once, also in
/// a lane that replays it gate by gate around a hit, so the cadence does
/// not depend on which lanes were struck.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Gate applications between norm checks; `0` disables the watchdog.
    pub check_every: usize,
    /// Renormalize when `|norm − 1| > tol`. The default is far above
    /// per-gate rounding noise, so short circuits are never touched and
    /// zero-noise runs stay bit-identical to the baseline.
    pub tol: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            check_every: 64,
            tol: 1e-10,
        }
    }
}

/// Drift statistics accumulated by the norm watchdog.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NormStats {
    /// Norm checks performed.
    pub checks: u64,
    /// Renormalizations triggered.
    pub renormalizations: u64,
    /// Largest observed `|norm − 1|`.
    pub max_drift: f64,
}

impl NormStats {
    fn merge(&mut self, other: &NormStats) {
        self.checks += other.checks;
        self.renormalizations += other.renormalizations;
        self.max_drift = self.max_drift.max(other.max_drift);
    }

    /// The merge of `lanes` lanes that each report `self`.
    fn times(&self, lanes: u64) -> NormStats {
        let mut all = NormStats::default();
        if lanes > 0 {
            all.merge(self);
            all.checks *= lanes;
            all.renormalizations *= lanes;
        }
        all
    }
}

/// Configuration of a trajectory run.
#[derive(Clone, Debug)]
pub struct TrajectoryConfig {
    /// Master seed; shot `i` runs on an RNG derived from `(seed, i)`, so
    /// results do not depend on thread scheduling.
    pub seed: u64,
    /// Number of trajectories to sample.
    pub shots: u64,
    /// Noise locations and channels.
    pub noise: NoiseSpec,
    /// Kernel dispatch configuration (fusion, SIMD, parallelism) — the
    /// same for noisy and noiseless runs: one plan serves both.
    /// `fuse: false, remap: false` executes the source gates one by one
    /// (the reference the fused plan is differentially tested against).
    /// `allow_parallel` is the run's one parallelism switch: on, shots
    /// (and Pauli-frame batches) fan out over threads (`sim::par`) and a
    /// terminal table's one-time evolution uses the parallel kernels; a
    /// shot's own kernels are always serial, so nothing nests.
    pub kernel: KernelConfig,
    /// Resource limits checked before the per-shot state allocation.
    pub limits: ResourceLimits,
    /// Norm-drift watchdog.
    pub watchdog: WatchdogConfig,
    /// Observables whose expectations are averaged over the final states
    /// of all shots (must match the circuit's register size).
    pub observables: Vec<Observable>,
    /// The product route (the default), or one of the reference routes
    /// the differential tests compare it against. Read only by [`route`].
    pub reference: Reference,
    /// State representation of the shot engine: the default pins the
    /// dense engine, `Auto`/`Sparse` open the sparse prefix-sampling path
    /// ([`route`]) to 30+ qubit registers the dense guard refuses.
    pub backend: BackendRequest,
    /// Cooperative deadline/cancellation, polled at op boundaries inside
    /// every shot and once per shot in the fan-out prologue. A stopped
    /// ensemble keeps the shots it completed and returns a result
    /// flagged partial ([`TrajectoryResult::stop_cause`]); the checks
    /// never draw from the per-shot RNG streams, so completed shots are
    /// bit-identical to the same shots of an uncontrolled run. The
    /// default ([`ExecutionControl::none`]) is a no-op.
    pub control: ExecutionControl,
    /// Batch width. On the Pauli-frame path a batch is `shot_batch`
    /// *words* of 64 bit-sliced lanes (the default is 4096 shots per
    /// batch). On the per-shot/forked paths it is shots per batch: a batch
    /// evolves the noiseless stretch its shots share once and forks each
    /// shot off at its own first stochastic divergence. Per-shot
    /// `(seed, shot)` RNG streams make every shot independent of the
    /// batch grouping, so results are bit-identical at any batch size;
    /// `<= 1` is the serial engine (the batch of one). A batch holds two
    /// states at a time (its reference and the lane being finished)
    /// whatever its width.
    pub shot_batch: usize,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            seed: 1,
            shots: 1024,
            noise: NoiseSpec::default(),
            kernel: KernelConfig::default(),
            limits: ResourceLimits::default(),
            watchdog: WatchdogConfig::default(),
            observables: Vec::new(),
            reference: Reference::Product,
            backend: BackendRequest::Dense,
            control: ExecutionControl::none(),
            shot_batch: DEFAULT_SHOT_BATCH,
        }
    }
}

/// Which route [`route`] takes: the product's, or a reference route that
/// gives up one shortcut so a test can compare the product against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Every shortcut the run's shape allows.
    Product,
    /// No shared evolution: every shot evolves and tabulates its own
    /// state from op 0 — no forked prefix, no terminal table, no sparse
    /// prefix sampling (the Pauli frames stay eligible). Results are
    /// `==` the product's.
    NoSharing,
    /// No Pauli frames: a noisy Clifford run stays on the state-vector
    /// engine. Statistically equivalent to the product, not bit-identical
    /// — a frame shot flips a coin where a state-vector shot collapses an
    /// amplitude.
    NoFrames,
}

/// Default [`TrajectoryConfig::shot_batch`]: large enough to amortize
/// instruction dispatch across a batch, small enough that a batch is
/// still a reasonable work unit for the parallel fan-out.
pub const DEFAULT_SHOT_BATCH: usize = 64;

/// Which shot-execution strategy a trajectory run takes ([`route`]
/// decides, [`TrajectoryResult::path`] reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShotPath {
    /// No deterministic prefix to fork from: shots start at op 0. A batch
    /// still evolves the stretch its shots share once, so "per shot"
    /// names where a shot *may* diverge, not what each one evolves.
    PerShot,
    /// The deterministic prefix was evolved once and snapshotted; each
    /// shot forked from the snapshot and ran only the stochastic suffix.
    Forked {
        /// Ops (gates + fences) replayed once instead of per shot.
        prefix_ops: usize,
    },
    /// A noiseless terminal-measurement run: the state was evolved once
    /// and every shot drawn from the measured marginal — tabulated, or
    /// streamed over the state when no plan could keep the table
    /// ([`TerminalDraw`]). ("Alias" is historical — the table is
    /// cumulative sums searched by bisection; the name is kept for
    /// callers that match on it.)
    AliasSampled {
        /// Ops evolved once before sampling.
        prefix_ops: usize,
    },
    /// Like [`AliasSampled`](Self::AliasSampled), but the prefix was
    /// evolved on the sparse executor and the marginal built over the
    /// live entries only — the dense `2^n` state never exists.
    SparseSampled {
        /// Ops evolved once (sparsely) before sampling.
        prefix_ops: usize,
    },
    /// Clifford + Pauli-noise run: the reference circuit was evolved
    /// once on the stabilizer tableau and every shot propagated only
    /// its Pauli error frame, bit-sliced 64 shots per word
    /// ([`crate::sim::frame`]).
    PauliFrame,
}

impl fmt::Display for ShotPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShotPath::PerShot => write!(f, "per-shot"),
            ShotPath::Forked { prefix_ops } => {
                write!(f, "forked (prefix {prefix_ops} ops)")
            }
            ShotPath::AliasSampled { prefix_ops } => {
                write!(f, "alias-sampled (prefix {prefix_ops} ops)")
            }
            ShotPath::SparseSampled { prefix_ops } => {
                write!(f, "sparse-sampled (prefix {prefix_ops} ops)")
            }
            ShotPath::PauliFrame => write!(f, "pauli-frame"),
        }
    }
}

/// A Pauli error injected during one trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectedPauli {
    /// Index into the **source schedule**
    /// ([`crate::program::CompiledProgram::source`]) of the operation
    /// the error followed (a readout error: preceded) — gates,
    /// measurements, resets and fences all count. Noise sites are
    /// numbered on the circuit's own gates, so the index means the same
    /// whichever plan executed the shot (fused blocks and layout
    /// permutations have no index of their own).
    pub op_index: usize,
    /// Qubit the error hit.
    pub qubit: usize,
    /// Which Pauli was injected.
    pub pauli: Pauli,
}

/// The outcome of a single trajectory ([`run_single_trajectory`]).
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// Final state vector of this shot.
    pub state: CVec,
    /// Concatenated measurement outcomes, in execution order.
    pub record: String,
    /// Every Pauli error injected during the shot.
    pub injected: Vec<InjectedPauli>,
    /// Watchdog statistics for this shot.
    pub norm: NormStats,
}

/// Aggregated results of [`run_trajectories`].
#[derive(Clone, Debug)]
pub struct TrajectoryResult {
    nb_qubits: usize,
    shots: u64,
    requested_shots: u64,
    counts: BTreeMap<String, u64>,
    injected_errors: u64,
    expectations: Vec<f64>,
    norm: NormStats,
    path: ShotPath,
    /// `Some` when the ensemble was stopped early by its
    /// [`ExecutionControl`]; `shots` then counts only the completed
    /// trajectories.
    stopped: Option<StopCause>,
    /// Shot-batch width the run executed with (1 = serial).
    batch: u64,
    /// The one-time preparation came from the plan, not from this run.
    prep_hit: bool,
}

impl TrajectoryResult {
    /// The result of `route` under `config` before any shot completed:
    /// what a run stopped in its one-time preparation reports, and what
    /// every executing arm fills in.
    fn empty(route: &Route, config: &TrajectoryConfig) -> Self {
        TrajectoryResult {
            nb_qubits: route.program.nb_qubits(),
            shots: 0,
            requested_shots: config.shots,
            counts: BTreeMap::new(),
            injected_errors: 0,
            expectations: vec![0.0; config.observables.len()],
            norm: NormStats::default(),
            path: route.path,
            stopped: None,
            batch: 1,
            prep_hit: false,
        }
    }

    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// Number of trajectories actually sampled. Equal to
    /// [`requested_shots`](Self::requested_shots) unless the run was
    /// stopped early (see [`stop_cause`](Self::stop_cause)).
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Number of trajectories the configuration asked for.
    pub fn requested_shots(&self) -> u64 {
        self.requested_shots
    }

    /// Why the run stopped early, if it did. A `Some` here means the
    /// result is **partial**: counts, expectations and watchdog stats
    /// aggregate only the [`shots`](Self::shots) completed
    /// trajectories — each of which is still bit-identical to the same
    /// shot of an uninterrupted run.
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.stopped
    }

    /// `true` when the run was cancelled or timed out before completing
    /// every requested shot.
    pub fn is_partial(&self) -> bool {
        self.stopped.is_some()
    }

    /// Measurement-record frequencies (circuits without measurements
    /// produce a single empty-record entry).
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Sum of all record frequencies (equals [`shots`](Self::shots)).
    pub fn total_counts(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The observed frequency of `record`, as a fraction of shots.
    pub fn frequency(&self, record: &str) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        *self.counts.get(record).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// Total number of Pauli errors injected across all shots.
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors
    }

    /// Mean expectation of each configured observable over the final
    /// states of all shots (same order as `config.observables`).
    pub fn expectations(&self) -> &[f64] {
        &self.expectations
    }

    /// Merged watchdog statistics over all shots.
    pub fn norm_stats(&self) -> &NormStats {
        &self.norm
    }

    /// Which shot-execution strategy the run used.
    pub fn path(&self) -> ShotPath {
        self.path
    }

    /// Shot-batch width the run executed with: the configured
    /// [`TrajectoryConfig::shot_batch`] when the per-shot/forked path
    /// pushed batches of lanes through the plan's bytecode, the lanes
    /// of a Pauli-frame batch (64 per configured word, at most the shot
    /// count), `1` for serial execution and the sampled paths (which
    /// have no per-shot evolution to batch). Never affects results —
    /// only how the shared evolution was amortized.
    pub fn shot_batch(&self) -> u64 {
        self.batch
    }

    /// `true` when the run's seed-independent preparation (evolved
    /// prefix, marginal and sampler of a sampled path) was taken from
    /// the cached plan instead of being computed by this run. Never
    /// affects results: draws depend only on `(seed, shot)` and on the
    /// table, not on which run built it.
    pub fn prep_hit(&self) -> bool {
        self.prep_hit
    }
}

/// The plan options of a state-vector trajectory run: the kernel
/// configuration's, whatever the noise — so a noisy run, its noiseless
/// twin and `simulate` share one cached plan.
fn plan_options(config: &TrajectoryConfig) -> PlanOptions {
    PlanOptions::from(&config.kernel)
}

/// Version of the seed contract: what a `(circuit, seed, shots)` triple
/// maps to. Bumped by every change that can alter a sampled record or an
/// injected-error count at a fixed seed — a *declared* break, listed in
/// CHANGES.md with old and new goldens (`tests/seed_goldens.rs` keys its
/// rows on this number). History: 1 = PR 13 (thread-count-invariant
/// reductions at n ≥ 18), 2 = PR 16 (a terminal block is one draw),
/// 3 = PR 19 (noise walked hit to hit), 4 = noisy state-vector shots run
/// the fused plan (amplitude ulps; hits and the RNG stream unchanged).
pub const SEED_CONTRACT: u32 = 4;

/// Derives the per-shot RNG: a SplitMix64-style avalanche of the
/// `(seed, shot)` pair, so consecutive shots get uncorrelated streams and
/// results are independent of execution order. Part of the seed
/// contract: its first draws are pinned by `tests/rng_known_answers.rs`.
pub fn shot_rng(seed: u64, shot: u64) -> StdRng {
    let mut z = seed ^ shot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

fn pauli_gate(p: Pauli, q: usize) -> Option<Gate> {
    match p {
        Pauli::I => None,
        Pauli::X => Some(Gate::PauliX(q)),
        Pauli::Y => Some(Gate::PauliY(q)),
        Pauli::Z => Some(Gate::PauliZ(q)),
    }
}

/// Validates the register, initial state (`None` = `|0…0⟩`, valid by
/// construction), noise spec and observables of a run. Allocates nothing.
fn validate(
    circuit: &QCircuit,
    initial: Option<&CVec>,
    config: &TrajectoryConfig,
) -> Result<(), QclabError> {
    let n = circuit.nb_qubits();
    let dim = config.limits.check_register(n)?;
    if let Some(initial) = initial {
        if initial.len() != dim {
            return Err(QclabError::DimensionMismatch {
                expected: dim,
                actual: initial.len(),
            });
        }
        let norm = initial.norm();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(QclabError::NotNormalized { norm });
        }
    }
    config.noise.validate()?;
    for obs in &config.observables {
        if obs.nb_qubits() != n {
            return Err(QclabError::DimensionMismatch {
                expected: n,
                actual: obs.nb_qubits(),
            });
        }
    }
    Ok(())
}

/// A lane's draws, taken before it executes anything
/// ([`NoisePlan::draw_shot`]) and addressed to the plan it executes:
/// stream order is source order, but fusion moves gates back across
/// other qubits' gates and measurements, so neither a hit nor a
/// collapse uniform that precedes one can be drawn where execution
/// reaches it. Past the shot's last hit the stream holds nothing but
/// collapse uniforms (and a terminal outcome), and fusion keeps
/// measurements and resets in order: those are drawn from `rng` as
/// execution reaches them.
struct LaneDraws {
    /// The shot's hits by landing — sorted stably, so hits that land
    /// together keep their stream order (two Paulis on one qubit
    /// anticommute) — and the next one to apply.
    hits: Vec<(Landing, InjectedPauli)>,
    next_hit: usize,
    /// The uniform of each collapsing measurement or reset up to the
    /// last hit, in schedule order, and the next one to use.
    collapses: Vec<f64>,
    next_collapse: usize,
    /// The shot's stream, standing right after the last hit's draws.
    rng: StdRng,
}

impl LaneDraws {
    /// Addresses a shot's draws — its hits in stream order and the
    /// collapse uniforms among them — to `program`; `rng` is the stream
    /// they were taken from.
    fn land(
        program: &CompiledProgram,
        drawn: &[InjectedPauli],
        collapses: Vec<f64>,
        rng: StdRng,
    ) -> LaneDraws {
        let mut hits: Vec<(Landing, InjectedPauli)> = Vec::new();
        if !drawn.is_empty() {
            let landings = program.landings();
            hits.extend(
                drawn
                    .iter()
                    .map(|hit| (landings.of_hit(program, hit), *hit)),
            );
            hits.sort_by_key(|&(at, _)| at);
        }
        LaneDraws {
            hits,
            next_hit: 0,
            collapses,
            next_collapse: 0,
            rng,
        }
    }

    /// The draws of a stretch evolved once for many shots: no hit lands
    /// in it and it ends before the first collapse, so nothing is ever
    /// drawn.
    fn silent() -> LaneDraws {
        LaneDraws {
            hits: Vec::new(),
            next_hit: 0,
            collapses: Vec::new(),
            next_collapse: 0,
            rng: shot_rng(0, 0),
        }
    }

    /// Where the next pending hit lands.
    fn next(&self) -> Option<Landing> {
        self.hits.get(self.next_hit).map(|&(at, _)| at)
    }

    /// The op the next pending hit lands in (`usize::MAX`: none is
    /// pending).
    fn next_op(&self) -> usize {
        self.next().map_or(usize::MAX, |at| at.op)
    }

    /// Takes the next pending hit if it lands at or before `upto`.
    fn take(&mut self, upto: Landing) -> Option<(Landing, InjectedPauli)> {
        let next = *self.hits.get(self.next_hit).filter(|(at, _)| *at <= upto)?;
        self.next_hit += 1;
        Some(next)
    }

    /// The uniform of the collapse the lane has reached.
    fn collapse(&mut self) -> f64 {
        let ahead = self.collapses.get(self.next_collapse).copied();
        self.next_collapse += 1;
        ahead.unwrap_or_else(|| self.rng.gen())
    }
}

/// State of one in-flight shot: the vector, its position in the
/// instruction stream, and the watchdog bookkeeping.
#[derive(Clone)]
struct ShotState {
    state: CVec,
    scratch: CVec,
    n: usize,
    kernel: KernelConfig,
    watchdog: WatchdogConfig,
    stats: NormStats,
    gates_since_check: usize,
    /// The shot's hits in stream order — known before the lane executes
    /// (`lane_fork`), recorded here for the result.
    injected: Vec<InjectedPauli>,
    /// Active logical→physical layout from the locality pass (`None` =
    /// identity). Hits and replayed source gates name logical qubits and
    /// are translated through it.
    map: Option<Vec<usize>>,
    /// Cursor: index of the next instruction in the stream …
    pc: usize,
    /// … and schedule index of the next op. Inside a window the two
    /// differ in pace: `op − first` of its gates are already applied.
    op: usize,
}

impl ShotState {
    /// A shot standing at op 0 of `initial`.
    fn new(initial: CVec, n: usize, kernel: KernelConfig, watchdog: WatchdogConfig) -> Self {
        ShotState {
            state: initial,
            scratch: CVec(Vec::new()),
            n,
            kernel,
            watchdog,
            stats: NormStats::default(),
            gates_since_check: 0,
            injected: Vec::new(),
            map: None,
            pc: 0,
            op: 0,
        }
    }

    fn bump_watchdog(&mut self, gates: usize) {
        if self.watchdog.check_every > 0 {
            self.gates_since_check += gates;
            if self.gates_since_check >= self.watchdog.check_every {
                self.check_norm();
            }
        }
    }

    /// Watchdog step: measure the norm, record the drift, renormalize
    /// past the tolerance.
    fn check_norm(&mut self) {
        self.gates_since_check = 0;
        self.stats.checks += 1;
        let norm = self.state.norm();
        let drift = (norm - 1.0).abs();
        self.stats.max_drift = self.stats.max_drift.max(drift);
        if drift > self.watchdog.tol && norm > 0.0 {
            let inv = 1.0 / norm;
            for z in self.state.iter_mut() {
                *z *= inv;
            }
            self.stats.renormalizations += 1;
        }
    }

    /// The end-of-shot norm check over the gates since the last one.
    fn final_check(&mut self) {
        if self.watchdog.check_every > 0 && self.gates_since_check > 0 {
            self.check_norm();
        }
    }

    /// Applies one noise hit: `pauli` on logical qubit `qubit`.
    fn inject(&mut self, pauli: Pauli, qubit: usize) {
        if let Some(g) = pauli_gate(pauli, self.physical(qubit)) {
            kernel::apply_gate_with(&g, &mut self.state, self.n, &self.kernel);
        }
    }

    /// Applies the lane's pending hits that land at or before `upto`.
    fn inject_landed(&mut self, draws: &mut LaneDraws, upto: Landing) {
        while let Some((_, hit)) = draws.take(upto) {
            self.inject(hit.pauli, hit.qubit);
        }
    }

    /// The struck op at the cursor, when a pending hit lands *inside*
    /// it: applies its source gates one by one — relabeled through the
    /// active layout — with each hit where it lands, and returns `true`.
    /// `k + 1` sweeps for this op only; no matrix is rebuilt. Returns
    /// `false`, having applied nothing, when the op's hits all sit at
    /// its boundaries (the caller then runs the fused kernel).
    fn replay(&mut self, program: &CompiledProgram, draws: &mut LaneDraws) -> bool {
        let op = self.op;
        let members = program.landings().members(op);
        let inside = |at: Landing| at.op == op && at.slot < members.len();
        if !draws.next().is_some_and(inside) {
            return false;
        }
        for (pos, &s) in members.iter().enumerate() {
            if let ProgramOp::Gate(g) = &program.source()[s] {
                match &self.map {
                    None => kernel::apply_gate_with(g, &mut self.state, self.n, &self.kernel),
                    Some(map) => {
                        let g = g.relabeled(map);
                        kernel::apply_gate_with(&g, &mut self.state, self.n, &self.kernel)
                    }
                }
            }
            self.inject_landed(draws, Landing { op, slot: pos + 1 });
        }
        true
    }

    /// The physical slot of logical qubit `q` under the active layout.
    fn physical(&self, q: usize) -> usize {
        self.map.as_ref().map_or(q, |m| m[q])
    }

    /// Samples a Z measurement of *logical* qubit `q` with the uniform
    /// `r`, collapses, returns the bit. Under a non-identity layout the
    /// mapped collapse routines enumerate amplitudes in logical index
    /// order, so probabilities — and therefore the comparison with `r`
    /// and the drawn bit — are bit-identical to the unremapped engine.
    fn sample_z(&mut self, q: usize, r: f64) -> usize {
        let (p0, p1) = match &self.map {
            None => collapse::measure_probabilities(&self.state, self.n, q),
            Some(m) => collapse::measure_probabilities_mapped(&self.state, self.n, q, m),
        };
        // degenerate outcomes never collapse onto a zero-probability half
        let bit = if p1 <= 0.0 {
            0
        } else if p0 <= 0.0 {
            1
        } else if r < p0 / (p0 + p1) {
            0
        } else {
            1
        };
        let p = if bit == 0 { p0 } else { p1 };
        // collapse into the scratch buffer and swap: same arithmetic as
        // `collapse::collapse`, one allocation per shot at most
        match &self.map {
            None => collapse::collapse_into(&self.state, self.n, q, bit, p, &mut self.scratch),
            Some(m) => {
                collapse::collapse_into_mapped(&self.state, self.n, q, bit, p, m, &mut self.scratch)
            }
        }
        std::mem::swap(&mut self.state, &mut self.scratch);
        bit
    }

    /// Samples a measurement in its basis (rotate in, Z-sample, rotate
    /// back), mirroring the branching simulator's basis handling. The
    /// basis rotation is a physical single-qubit gate, so it targets the
    /// measured qubit's physical slot.
    fn sample_measurement(&mut self, m: &Measurement, r: f64) -> usize {
        let q = m.qubit();
        let pq = self.physical(q);
        let needs_change = !matches!(m.basis(), Basis::Z);
        if needs_change {
            let v = m.basis().change_matrix();
            let vdg = Gate::Custom {
                name: "V†".into(),
                qubits: vec![pq],
                matrix: v.dagger(),
            };
            kernel::apply_gate_with(&vdg, &mut self.state, self.n, &self.kernel);
            let bit = self.sample_z(q, r);
            let vg = Gate::Custom {
                name: "V".into(),
                qubits: vec![pq],
                matrix: v,
            };
            kernel::apply_gate_with(&vg, &mut self.state, self.n, &self.kernel);
            bit
        } else {
            self.sample_z(q, r)
        }
    }

    /// The cumulative outcome table of `block` on this state — the one
    /// build behind every terminal draw, whether the state is the run's
    /// shared noiseless evolution or a diverged lane's own: the
    /// end-of-shot norm check, each measured qubit rotated into its
    /// basis, the joint marginal, prefix-summed in place. The state is
    /// consumed as a state (left rotated); its layout is the identity,
    /// which lowering guarantees at a terminal block.
    fn terminal_table(&mut self, block: &TerminalBlock) -> Result<CdfTable, QclabError> {
        self.rotate_terminal(block);
        CdfTable::new(marginal(&self.state, &block.measured, self.n, &block.lut))
    }

    /// The state a terminal block is drawn from, table or stream: the
    /// end-of-shot norm check, then each measured qubit rotated into its
    /// basis.
    fn rotate_terminal(&mut self, block: &TerminalBlock) {
        debug_assert!(self.map.is_none());
        self.final_check();
        for vdg in &block.rotations {
            kernel::apply_gate_with(vdg, &mut self.state, self.n, &self.kernel);
        }
    }

    /// The terminal block on a lane's own state: the pending hits that
    /// land before a measurement of the block (readout hits — injected,
    /// which is exact in every basis since the measured qubits are
    /// pairwise distinct), then one outcome uniform through the same
    /// table build and the same draw as the shared table's. A hit that
    /// lands *after* its qubit's measurement can no longer reach an
    /// outcome and is not applied.
    fn measure_terminal(
        &mut self,
        block: &TerminalBlock,
        draws: &mut LaneDraws,
    ) -> Result<usize, QclabError> {
        let end = Landing {
            op: usize::MAX,
            slot: usize::MAX,
        };
        while let Some((at, hit)) = draws.take(end) {
            if at.slot == 0 {
                self.inject(hit.pauli, hit.qubit);
            }
        }
        Ok(self.terminal_table(block)?.sample(&mut draws.rng))
    }

    /// The one per-instruction body of the shot engine: executes `instr`
    /// — the instruction at the cursor — against the state together with
    /// the hits of `draws` that land in it, appends measured bits to
    /// `record`, moves the cursor, and returns the number of ops covered.
    ///
    /// Everything but a window is one op. A window is *cut*: it stops at
    /// `until`, where a watchdog check falls due, and before the next op
    /// one of the lane's hits lands in — which then runs alone. A cut is
    /// itself a sweep over a sub-range of the tiles, bit-identical to the
    /// same gates applied one by one, so every check and fork sees the
    /// state a per-gate walk would have shown it.
    fn step(
        &mut self,
        program: &CompiledProgram,
        instr: &Instr,
        until: usize,
        draws: &mut LaneDraws,
        record: &mut String,
    ) -> usize {
        let op = self.op;
        let struck = draws.next_op() == op;
        if struck {
            self.inject_landed(draws, Landing { op, slot: 0 });
        }
        // ops covered, and whether the instruction is finished
        let (mut covered, mut done) = (1, true);
        match instr {
            Instr::Gate(pre) => {
                if !(struck && self.replay(program, draws)) {
                    kernel::apply_prepared(pre, &mut self.state, self.n, &self.kernel);
                }
                self.bump_watchdog(1);
            }
            Instr::Window { tiles, first } => {
                let from = op - first;
                if !struck {
                    covered = (tiles.len() - from)
                        .min(until - op)
                        .min(draws.next_op() - op);
                    if self.watchdog.check_every > 0 {
                        covered = covered.min(self.watchdog.check_every - self.gates_since_check);
                    }
                }
                if !(struck && self.replay(program, draws)) {
                    let now = &tiles[from..from + covered];
                    kernel::apply_window_pre(&mut self.state, self.n, now, &self.kernel);
                }
                self.bump_watchdog(covered);
                done = from + covered == tiles.len();
            }
            Instr::Fence => {}
            Instr::Permute { perm, map } => {
                // pure data movement: never perturbs amplitude bits,
                // never consumes RNG draws
                kernel::permute_state(
                    &mut self.state,
                    self.n,
                    perm,
                    self.kernel.parallel_at(self.n),
                );
                self.map.clone_from(map);
            }
            Instr::Measure(m) => {
                let bit = self.sample_measurement(m, draws.collapse());
                record.push(if bit == 0 { '0' } else { '1' });
            }
            Instr::Reset(q) => {
                if self.sample_z(*q, draws.collapse()) == 1 {
                    let flip = Gate::PauliX(self.physical(*q));
                    kernel::apply_gate_with(&flip, &mut self.state, self.n, &self.kernel);
                    self.bump_watchdog(1);
                }
            }
        }
        if struck {
            // what lands after the op (a replay has taken its own)
            let slot = usize::MAX;
            self.inject_landed(draws, Landing { op, slot });
        }
        self.op += covered;
        self.pc += usize::from(done);
        covered
    }

    /// Steps the shot through `program`'s stream until its cursor stands
    /// at op `until`. Polls the control through `ticker` at every step —
    /// the checks never touch `draws`, so a shot that completes under an
    /// enabled control is bit-identical to the same shot without one; a
    /// stopped shot surfaces [`QclabError::Cancelled`] /
    /// [`QclabError::DeadlineExceeded`].
    fn advance(
        &mut self,
        program: &CompiledProgram,
        stream: &[Instr],
        until: usize,
        draws: &mut LaneDraws,
        record: &mut String,
        ticker: &mut ControlTicker<'_>,
    ) -> Result<(), QclabError> {
        while self.op < until {
            let ops = self.step(program, &stream[self.pc], until, draws, record);
            ticker.tick_n(ops)?;
        }
        Ok(())
    }

    /// [`advance`](Self::advance) over a stretch evolved once for many
    /// shots — the deterministic prefix, a batch's reference pass. Such
    /// a stretch ends at the first measurement or reset at the latest
    /// and no lane has a hit in it, so there is nothing to draw and the
    /// record stays empty.
    fn advance_shared(
        &mut self,
        program: &CompiledProgram,
        stream: &[Instr],
        until: usize,
        ticker: &mut ControlTicker<'_>,
    ) -> Result<(), QclabError> {
        self.advance(
            program,
            stream,
            until,
            &mut LaneDraws::silent(),
            &mut String::new(),
            ticker,
        )
    }
}

/// Everything the shots of one prepared run share beside the route's
/// plan.
struct ShotProgram {
    bc: Arc<Bytecode>,
    /// The run's noise laws over the program's site numbering.
    noise: NoisePlan,
    /// The state every shot starts from: `|initial⟩` at op 0, or — on
    /// the fork path — the snapshot after the deterministic prefix,
    /// carrying its cursor, watchdog counters and layout so per-shot
    /// statistics match the unforked engine exactly.
    start: ShotState,
    /// `Some` when the program ends in a terminal measurement block and
    /// no observable reads the post-measurement state: lanes then end in
    /// one draw instead of per-qubit collapses.
    terminal: Option<Terminal>,
}

/// The measurements of a terminal block
/// ([`ShotPlan::terminal_measurements`](crate::program::ShotPlan)), as
/// the one draw reads them.
struct TerminalBlock {
    /// Schedule index of the block's first op (the prefix length).
    first: usize,
    /// Measured qubits in execution order (first = most significant
    /// outcome bit).
    measured: Vec<usize>,
    /// The `V†` that brings each non-Z measurement into the
    /// computational basis. The measured qubits are pairwise distinct,
    /// so the rotations commute and the Z-basis joint marginal of the
    /// rotated state is exactly the joint outcome distribution of the
    /// measurements taken one by one.
    rotations: Vec<Gate>,
    /// [`tile_lut`] of the measured qubits, built once for every lane
    /// that tabulates its own state.
    lut: Vec<usize>,
}

impl TerminalBlock {
    fn of(program: &CompiledProgram) -> TerminalBlock {
        let first = program.shot_plan().prefix_ops;
        let mut block = TerminalBlock {
            first,
            measured: Vec::new(),
            rotations: Vec::new(),
            lut: Vec::new(),
        };
        for item in &program.ops()[first..] {
            if let ProgramOp::Measure(m) = item {
                block.measured.push(m.qubit());
                if !matches!(m.basis(), Basis::Z) {
                    block.rotations.push(Gate::Custom {
                        name: "V†".into(),
                        qubits: vec![m.qubit()],
                        matrix: m.basis().change_matrix().dagger(),
                    });
                }
            }
        }
        block.lut = tile_lut(&block.measured, program.nb_qubits());
        block
    }
}

/// How the lanes of a [`ShotProgram`] end in a terminal block.
struct Terminal {
    block: TerminalBlock,
    /// The table of the run's noiseless evolution, which every lane that
    /// injects nothing draws from. `None` on [`Reference::NoSharing`]:
    /// every lane then tabulates its own state.
    shared: Option<Arc<SampledPrep>>,
}

/// What a lane measured: the record of per-qubit collapses, or the
/// outcome index of one terminal draw (measurement `j` is bit `m−1−j`).
enum Measured {
    Record(String),
    Outcome(usize),
}

/// Where one lane's trajectory first leaves the batch's shared
/// noiseless evolution. A shot's hits are a function of its
/// `(seed, shot)` stream and the source schedule alone, never of
/// amplitudes — so they are all drawn, landed and sorted before any
/// state exists, and the first op at which the shot can diverge (the
/// earliest op a hit lands in, or the first measurement or reset that
/// collapses the state) is known up front.
struct LaneFork {
    /// Index of the first op the lane executes itself; the op count when
    /// it executes none (its walk has no hit, up to and including a
    /// terminal block's readout sites).
    shared: usize,
    /// The lane's hits, addressed to the plan, and its stream.
    draws: LaneDraws,
    /// The lane's hits in stream order, for its result.
    injected: Vec<InjectedPauli>,
}

/// Takes shot `shot`'s draws and finds the lane's fork point: the
/// earliest op one of its hits lands in, or `collapse` — the first
/// measurement or reset, which consults the state — if that comes first.
/// `collapses` says whether measurements collapse one by one (each then
/// owns a uniform of the stream) or end in a terminal draw. With
/// `through` (a terminal block drawn from a shared table) a lane without
/// any hit does not fork at all: it comes back parked on its outcome
/// uniform.
fn lane_fork(
    program: &CompiledProgram,
    noise: &NoisePlan,
    seed: u64,
    shot: u64,
    collapse: usize,
    collapses: bool,
    through: Option<usize>,
) -> LaneFork {
    let mut rng = shot_rng(seed, shot);
    let ShotDraws { hits, collapses } = noise.draw_shot(program, collapses, &mut rng);
    let draws = LaneDraws::land(program, &hits, collapses, rng);
    let shared = match through {
        Some(ops) if hits.is_empty() => ops,
        _ => draws.next_op().min(collapse),
    };
    LaneFork {
        shared,
        draws,
        injected: hits,
    }
}

/// Drives `count` shots (`first..first + count`) through the bytecode by
/// amortizing the evolution the shots *share*. Up to its first
/// stochastic divergence every shot follows the same noiseless
/// trajectory through the same kernels, and because a shot's noise walk
/// never consults the state, each lane's divergence point is known up
/// front ([`lane_fork`]). The batch therefore evolves one reference state
/// through the shared ops *once* — only as far as its last diverging
/// lane — forks each lane off it at that lane's own divergence point
/// (state + cursor + watchdog counters, with the lane's draws), and
/// finishes the lane before moving on, so the suffix state stays
/// cache-resident; the last lane takes the reference itself, so a batch
/// of one copies nothing. `reference` is the state the shots start from.
///
/// With a `terminal` block, a lane ends in one outcome draw
/// ([`ShotState::measure_terminal`]) instead of stepping through the
/// measurements; with a shared table as well, a lane that never
/// diverges holds no state at all and draws from that table.
///
/// Every lane runs the per-instruction body ([`ShotState::step`]) over
/// the same ops in the same order with the same draws whatever the
/// grouping, so every shot is bit-identical at any batch width. A
/// finished lane is handed to `finish` as (lane index, what it measured,
/// its own state — `None` if it drew from the shared table); a control
/// stop (reference pass or any lane) returns the error, and the caller
/// drops the whole in-flight batch.
#[allow(clippy::too_many_arguments)]
fn run_shot_batch(
    program: &CompiledProgram,
    bc: &Bytecode,
    noise: &NoisePlan,
    terminal: Option<&Terminal>,
    mut reference: ShotState,
    config: &TrajectoryConfig,
    first: u64,
    count: usize,
    mut finish: impl FnMut(usize, Measured, Option<ShotState>),
) -> Result<(), QclabError> {
    let stream = &bc.stream;
    let block = terminal.map(|t| &t.block);
    let shared = terminal.and_then(|t| t.shared.as_deref());
    // where does each lane leave the shared trajectory? (one set of
    // draws per lane — no state, no kernels) Only with a table to draw
    // from can a lane pass through the block.
    let through = block.and(shared).map(|_| bc.ops);
    // the reference starts at op 0 or at the end of the deterministic
    // prefix: the first collapse is where that prefix ends
    let collapse = program.shot_plan().prefix_ops;
    debug_assert!(reference.op <= collapse);
    let mut forks: Vec<LaneFork> = (0..count as u64)
        .map(|j| {
            let shot = first + j;
            lane_fork(
                program,
                noise,
                config.seed,
                shot,
                collapse,
                block.is_none(),
                through,
            )
        })
        .collect();
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&j| forks[j].shared);
    // the lanes that never diverge sort last and need no state
    let mut diverging = &order[..];
    if let Some(table) = shared {
        diverging = &order[..order.partition_point(|&j| forks[j].shared < bc.ops)];
        for &j in &order[diverging.len()..] {
            let outcome = table.draw(&mut forks[j].draws.rng);
            finish(j, Measured::Outcome(outcome), None);
        }
    }
    let Some((&last, rest)) = diverging.split_last() else {
        return Ok(());
    };
    let mut run_lane = |mut lane: ShotState, j: usize, fork: &mut LaneFork| {
        lane.injected = std::mem::take(&mut fork.injected);
        let mut record = String::new();
        let mut ticker = config.control.ticker();
        let until = block.map_or(bc.ops, |b| b.first);
        lane.advance(
            program,
            stream,
            until,
            &mut fork.draws,
            &mut record,
            &mut ticker,
        )?;
        let measured = match block {
            Some(block) => Measured::Outcome(lane.measure_terminal(block, &mut fork.draws)?),
            None => {
                lane.final_check();
                Measured::Record(record)
            }
        };
        finish(j, measured, Some(lane));
        Ok::<(), QclabError>(())
    };
    let mut ticker = config.control.ticker();
    for &j in rest {
        reference.advance_shared(program, stream, forks[j].shared, &mut ticker)?;
        run_lane(reference.clone(), j, &mut forks[j])?;
    }
    reference.advance_shared(program, stream, forks[last].shared, &mut ticker)?;
    run_lane(reference, last, &mut forks[last])
}

/// The kernel configuration a shot actually runs with: single-threaded,
/// whether or not the shots fan out — the fan-out is the parallelism,
/// and a serial run asked for none.
fn shot_kernel_config(config: &TrajectoryConfig) -> KernelConfig {
    KernelConfig {
        allow_parallel: false,
        ..config.kernel
    }
}

/// Evolves the deterministic prefix (the first `prefix` ops — gates,
/// fences and layout permutations only, by construction of
/// [`crate::program::ShotPlan`]) once from `initial`, on the plan's
/// cached stream with full watchdog bookkeeping. The returned state
/// carries the cursor, watchdog counters and layout forked shots resume
/// from.
fn evolve_prefix(
    program: &CompiledProgram,
    prefix: usize,
    initial: CVec,
    config: &TrajectoryConfig,
    kernel: KernelConfig,
) -> Result<ShotState, QclabError> {
    let bc = program.bytecode();
    let mut s = ShotState::new(initial, bc.n(), kernel, config.watchdog);
    s.advance_shared(program, &bc.stream, prefix, &mut config.control.ticker())?;
    Ok(s)
}

/// Splits a control stop (cancel/deadline — the partial-result cases)
/// from a genuine execution error, which propagates.
pub(crate) fn stop_or_err(err: QclabError) -> Result<StopCause, QclabError> {
    StopCause::from_error(&err).ok_or(err)
}

/// The shared, seed-independent preparation of a run that ends in a
/// terminal measurement block: the noiseless evolution reduced to the
/// [`CdfTable`] of the measured-qubit marginal. Building it is the
/// `O(2^n · gates)` (dense) or support-sized (sparse) part of the run;
/// a draw from it is one bisection keyed only by `(seed, shot)` — so one
/// prep can serve every shot of a noiseless run, every error-free lane
/// of a noisy one and, retained on the plan ([`PrepSlot`]), later runs,
/// with every run's draws bit-identical to a cold run.
struct SampledPrep {
    /// Outcome index for each sampler slot; `None` means the identity
    /// (the dense path's sampler covers the full `2^m` marginal).
    outcomes: Option<Vec<usize>>,
    sampler: CdfTable,
    /// Measured-qubit count — the record width.
    m: usize,
    /// Watchdog statistics of the one-time prefix evolution (dense
    /// path; the sparse executor has no norm watchdog).
    norm: NormStats,
    /// Most live entries the sparse prefix evolution held (0 on the
    /// dense path): a run served from a retained prep still answers to
    /// its own [`ResourceLimits::check_sparse_entries`].
    peak_entries: u128,
}

/// The measured-qubit outcome bits of every index within one sweep
/// tile — the low half of [`marginal`]'s index split.
fn tile_lut(measured: &[usize], n: usize) -> Vec<usize> {
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
fn marginal(state: &[C64], measured: &[usize], n: usize, lut: &[usize]) -> Vec<f64> {
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
struct StreamedPrep {
    state: CVec,
    n: usize,
    measured: Vec<usize>,
    /// [`scatter_lut`] of `measured`.
    lut: Vec<usize>,
    stream: CdfStream,
    /// Watchdog statistics of the one-time evolution.
    norm: NormStats,
}

impl StreamedPrep {
    /// Hands the marginal's weights to `f` in outcome order, read off the
    /// state.
    fn weights(&self, f: Sink<'_>) {
        marginal_tiles(&self.state, &self.measured, self.n, &self.lut, f)
    }
}

/// Prepares the terminal draw of a dense run: the program is a unitary
/// prefix followed only by measurements of pairwise-distinct qubits (plus
/// fences), and no observable is requested. Evolves the noiseless state
/// once and tabulates it ([`ShotState::terminal_table`]) — or, when
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
    let mut s = match evolve_prefix(program, block.first, initial, config, config.kernel) {
        Ok(s) => s,
        Err(e) => return Ok(Prepared::Stopped(stop_or_err(e)?)),
    };
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
/// [`route`] has validated the noise spec and the sparse register.
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
    let walked = walk_branches(
        &mut prefix.branches,
        ops,
        &(),
        &config.limits,
        n,
        &mut ticker,
    );
    let peak_entries = match walked {
        Ok(peak) => peak,
        // stopped before any shot existed
        Err(e) => return Ok(Prepared::Stopped(stop_or_err(e)?)),
    };
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

/// Renders a tally keyed by terminal outcome index as measurement
/// records, once per distinct outcome: measurement `j` (execution order)
/// is bit `m−1−j` of the index, matching the per-qubit record layout.
fn render_outcomes(tally: BTreeMap<usize, u64>, m: usize, counts: &mut BTreeMap<String, u64>) {
    for (k, c) in tally {
        let record = (0..m)
            .rev()
            .map(|j| if (k >> j) & 1 == 1 { '1' } else { '0' })
            .collect();
        *counts.entry(record).or_insert(0) += c;
    }
}

/// Draws `config.shots` shots from a prepared table, each from the
/// shot's own `(config.seed, shot)` RNG stream — one draw per shot, so
/// the sample is deterministic and independent of execution order *and*
/// of which run the prep was built for. This is the noisy
/// ensemble with every lane error-free: each shot reports the shared
/// evolution's watchdog statistics. Polls `config.control` between
/// draws; a stop keeps the tally of the shots already drawn.
fn draw_sampled(
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
fn draw_streamed(
    prep: &StreamedPrep,
    config: &TrajectoryConfig,
    empty: TrajectoryResult,
) -> Result<TrajectoryResult, QclabError> {
    // `route` streams only when 16 B per shot stay below the table
    let mut points = Vec::with_capacity(config.shots as usize);
    let (done, stopped) = each_shot(config, |rng| points.push(prep.stream.point(rng.gen())))?;
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
    mut take: impl FnMut(&mut StdRng),
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
    let mut counts = BTreeMap::new();
    render_outcomes(tally, m, &mut counts);
    TrajectoryResult {
        shots: done,
        counts,
        norm: norm.times(done),
        stopped,
        ..empty
    }
}

/// The seed-independent half of a run — everything [`prepare`] pays
/// once for its route, before any shot is drawn.
enum Prepared {
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
    /// The one-time preparation was stopped before any shot existed.
    Stopped(StopCause),
}

impl SampledPrep {
    /// One terminal outcome (measurement `j` is bit `m−1−j`) from one
    /// uniform of `rng`.
    fn draw(&self, rng: &mut StdRng) -> usize {
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
/// (EXPERIMENTS F12), a per-shot start is the initial state itself and
/// `Stopped` is not a preparation. First come, first kept: a run under
/// another [`PrepKey`] computes its own preparation and leaves the slot
/// alone, and one over [`program::RETAINED_BYTES_CAP`] is never kept.
/// The slot dies with its plan (its last holder, LRU eviction,
/// [`program::clear_plan_cache`]).
#[derive(Clone, Default)]
pub(crate) struct PrepSlot(OnceLock<(PrepKey, Arc<SampledPrep>)>);

impl PrepSlot {
    fn get(&self, key: &PrepKey) -> Option<Arc<SampledPrep>> {
        let kept = self.0.get().filter(|(k, _)| k == key);
        program::count_prep(kept.is_some());
        kept.map(|(_, prep)| Arc::clone(prep))
    }

    /// Keeps `prep` if it is small enough and the slot is still empty.
    /// Racing cold runs each compute; one is kept.
    fn offer(&self, key: PrepKey, prep: &Arc<SampledPrep>) {
        if prep.bytes() <= program::RETAINED_BYTES_CAP {
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

/// How a trajectory run executes, decided by [`route`] before anything
/// is allocated: every consumer — the run itself, `qclab compile`, the
/// tests — reads this one record instead of restating the rules.
#[derive(Clone, Debug)]
pub struct Route {
    /// The engine, the shot strategy and the ops evolved once: what the
    /// run's [`TrajectoryResult::path`] reports.
    pub path: ShotPath,
    /// The plan the run executes, and so its [`PlanOptions`]:
    /// [`PlanOptions::unfused`] on the sparse path and for Pauli frames
    /// (both engines execute source gates), the kernel configuration's
    /// everywhere else.
    pub program: Arc<CompiledProgram>,
    /// A forked or per-shot ensemble whose terminal block is drawn from
    /// the noiseless evolution's table by every lane that injects no
    /// error — the table a noiseless run of the same plan draws from.
    pub shares_table: bool,
    /// How the dense noiseless evolution's terminal block is drawn, on
    /// the routes that draw it (`AliasSampled`, and lanes sharing its
    /// table); `None` elsewhere.
    pub draw: Option<TerminalDraw>,
    /// The rule that decided the route.
    pub why: &'static str,
}

/// How a dense terminal block is drawn ([`Route::draw`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalDraw {
    /// From the marginal's cumulative table ([`CdfTable`]).
    Table {
        /// The table's size: 8 B per outcome.
        bytes: u128,
    },
    /// From the rotated state itself, in two ascending passes over its
    /// marginal: a noiseless run whose table could never be kept on its
    /// plan (over [`program::RETAINED_BYTES_CAP`]) and would outweigh the
    /// run's sorted points (16 B a shot). Every outcome is the table's.
    Streamed,
}

/// Bytes a streamed terminal draw holds per shot: an 8-byte point in the
/// sort buffer, and as much again for the outcome tally it feeds.
const STREAM_BYTES_PER_SHOT: u128 = 16;

/// How `config`'s run draws the terminal block of the dense `program`:
/// streamed when it is noiseless, its table is over
/// [`program::RETAINED_BYTES_CAP`] and the shots' points weigh less than
/// the table; from the table otherwise. Noisy lanes share the table
/// whatever its size.
fn terminal_draw(program: &CompiledProgram, config: &TrajectoryConfig) -> TerminalDraw {
    let block = &program.ops()[program.shot_plan().prefix_ops..];
    let m = block
        .iter()
        .filter(|op| matches!(op, ProgramOp::Measure(_)))
        .count();
    let bytes = (std::mem::size_of::<f64>() as u128) << m;
    let points = STREAM_BYTES_PER_SHOT.saturating_mul(config.shots.into());
    let retainable = bytes <= program::RETAINED_BYTES_CAP as u128;
    if config.noise.is_noiseless() && !retainable && points < bytes {
        TerminalDraw::Streamed
    } else {
        TerminalDraw::Table { bytes }
    }
}

/// `true` when a run's lanes end in one terminal draw: the program ends
/// in a terminal measurement block and no observable reads the
/// post-measurement state.
fn ends_in_draw(program: &CompiledProgram, config: &TrajectoryConfig) -> bool {
    program.shot_plan().terminal_measurements && config.observables.is_empty()
}

/// Routes a run — sparse → Pauli frames → terminal table → fork or per
/// shot — without allocating any state or touching a plan's retained
/// preparation: it lowers (through the plan cache) only the plans the
/// decision reads, and returns the refusals a run meets before its
/// one-time preparation, in the order the run meets them.
/// `initial: None` starts from `|0…0⟩` and considers every engine; an
/// explicit initial state (validated here, never copied) pins the dense
/// ones.
pub fn route(
    circuit: &QCircuit,
    config: &TrajectoryConfig,
    initial: Option<&CVec>,
) -> Result<Route, QclabError> {
    let n = circuit.nb_qubits();
    let noiseless = config.noise.is_noiseless();
    let shares = config.reference != Reference::NoSharing;
    let routed = |path, program, shares_table, draw, why| Route {
        path,
        program,
        shares_table,
        draw,
        why,
    };
    // Each plan is lowered at most once and held until the decision is
    // made: the plan cache keeps a plan only when it is asked for again
    // after its last holder let go, so a second lookup would lower again.
    let unfused = OnceLock::new();
    let unfused =
        || Arc::clone(unfused.get_or_init(|| circuit.compile_with(&PlanOptions::unfused())));
    // Backend routing happens before the dense `|0…0⟩` guard, so
    // sparse-eligible wide registers are not refused on the dense byte
    // estimate.
    if initial.is_none() && config.backend != BackendRequest::Dense {
        let program = unfused();
        let choice = program::resolve_backend(config.backend, program.stats(), n, &config.limits)?;
        if let BackendChoice::Sparse { .. } = choice {
            if shares && noiseless && ends_in_draw(&program, config) {
                config.noise.validate()?;
                config.limits.check_sparse_register(n)?;
                let prefix_ops = program.shot_plan().prefix_ops;
                let path = ShotPath::SparseSampled { prefix_ops };
                let why = "sparse, noiseless, terminal";
                return Ok(routed(path, program, false, None, why));
            }
            if config.backend == BackendRequest::Sparse {
                return Err(QclabError::Unavailable(
                    "sparse trajectory execution covers noiseless terminal-measurement \
                     programs (prefix sampling) only — run with the dense or auto backend"
                        .into(),
                ));
            }
            // Auto preferred sparse but the program shape is not
            // prefix-sampleable: fall through to the dense engine,
            // whose own guard decides admission.
        }
    }
    // the one plan of this circuit, noisy or not; every state-vector
    // shot executes the same program
    let fused = OnceLock::new();
    let compile = || Arc::clone(fused.get_or_init(|| circuit.compile_with(&plan_options(config))));
    // Pauli frames: admitted by the frame guard instead of the dense 2^n
    // estimate, so 100+ qubit Clifford workloads run. Chosen by the
    // Clifford check on the source gates, which the engine executes one
    // by one — so it lowers unfused. Noiseless runs keep the exact paths.
    let frames = config.reference != Reference::NoFrames;
    let sampled_noise = !noiseless && config.observables.is_empty();
    if initial.is_none() && frames && sampled_noise && compile().stats().is_clifford {
        let program = unfused();
        if program.frame_program().is_some() {
            let why = "noisy Clifford, no observables";
            return Ok(routed(ShotPath::PauliFrame, program, false, None, why));
        }
    }
    validate(circuit, initial, config)?;
    let program = compile();
    let prefix_ops = program.shot_plan().prefix_ops;
    // A terminal block is tabulated once from the noiseless evolution: a
    // noiseless run draws every shot from it, a noisy one hands it to its
    // lanes. Without gate/idle noise the prefix draws nothing, so it is
    // evolved once and forked, bit for bit.
    let tabulated = shares && ends_in_draw(&program, config);
    let (path, why) = if tabulated && noiseless {
        (ShotPath::AliasSampled { prefix_ops }, "noiseless, terminal")
    } else if !shares {
        (ShotPath::PerShot, "fast path off")
    } else if config.noise.strikes_gates() {
        (ShotPath::PerShot, "gate or idle noise")
    } else if prefix_ops == 0 {
        (ShotPath::PerShot, "measures or resets first")
    } else {
        (ShotPath::Forked { prefix_ops }, "no gate or idle noise")
    };
    let draw = tabulated.then(|| terminal_draw(&program, config));
    Ok(routed(path, program, tabulated && !noiseless, draw, why))
}

/// Performs `route`'s one-time preparation (which never consults the
/// seed or the shot count), or — for a terminal table — takes it from
/// the plan ([`PrepSlot`]): only the `O(2^n)` allocation and evolution
/// are skipped then. The flag is `true` when the plan supplied it.
fn prepare(
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
        match retained_or(program, key(dense), || {
            terminal_prep(program, initial_state(), config, false)
        })? {
            (Prepared::Sampled(table), hit) => (shared, prep_hit) = (Some(table), hit),
            stopped => return Ok(stopped),
        }
    }
    // the prefix runs under the kernel config of the shots themselves,
    // so the snapshot is bit-identical to what each unforked shot would
    // have computed
    let kernel = shot_kernel_config(config);
    let start = match evolve_prefix(program, prefix_ops, initial_state(), config, kernel) {
        Ok(s) => s,
        // stopped during the one-time prefix: no shot completed
        Err(e) => return Ok((Prepared::Stopped(stop_or_err(e)?), false)),
    };
    // the layout the stream left the snapshot in is the one lowering
    // published for the end of the prefix
    debug_assert!(prefix_ops == 0 || start.map.as_deref() == program.prefix_map());
    let shots = ShotProgram {
        bc: program.bytecode(),
        noise: NoisePlan::new(program, &config.noise),
        start,
        terminal: ends_in_draw(program, config).then(|| Terminal {
            block: TerminalBlock::of(program),
            shared,
        }),
    };
    Ok((Prepared::Shots(Box::new(shots)), prep_hit))
}

impl Prepared {
    /// Samples `config.shots` shots of `route` from the preparation.
    fn run(
        &self,
        route: &Route,
        config: &TrajectoryConfig,
    ) -> Result<TrajectoryResult, QclabError> {
        let empty = TrajectoryResult::empty(route, config);
        match self {
            Prepared::Sampled(prep) => draw_sampled(prep, config, empty),
            Prepared::Streamed(prep) => draw_streamed(prep, config, empty),
            Prepared::Frames(frames) => {
                let run = frame::run_frames(&route.program, frames, config)?;
                Ok(TrajectoryResult {
                    shots: run.shots,
                    counts: run.counts,
                    injected_errors: run.injected,
                    stopped: run.stopped,
                    batch: run.batch,
                    ..empty
                })
            }
            Prepared::Shots(prog) => run_ensemble(&route.program, prog, config, empty),
            Prepared::Stopped(cause) => Ok(TrajectoryResult {
                stopped: Some(*cause),
                ..empty
            }),
        }
    }
}

/// Shots per fan-out round: what bounds the memory of a run whatever its
/// shot count. A round's batch results are held until the round is
/// merged; 2¹⁸ shots is 4096 batches of the default width, so every run
/// the benchmark suite makes is a single round.
pub(crate) const ROUND_SHOTS: u64 = 1 << 18;

/// Fans `config.shots` shots out in batches of `batch`: `run(first,
/// count)` executes one batch — on up to `sim::par`'s width of threads
/// when `config.kernel.allow_parallel` — and `merge(count, result)` folds
/// finished batches in **shot order**, so nothing accumulated across shots (a float sum
/// least of all) depends on the batch width or the thread count. Batches
/// go out in rounds of [`ROUND_SHOTS`] and are merged round by round:
/// memory is that of one round's batch results, never of `shots`.
///
/// Shared stop latch: the first batch to observe a cancel/deadline (or
/// hit an injected fault) trips it; every batch's prologue checks the
/// latch — and probes the control directly, so short shots that never
/// reach a ticker check still stop between batches — and returns without
/// a result. The in-flight batch is dropped whole; finished batches are
/// kept: each shot's RNG stream depends only on `(seed, shot)`. Returns
/// the stop cause of a partial run; a genuine error propagates.
pub(crate) fn fan_out<T: Send>(
    config: &TrajectoryConfig,
    batch: usize,
    run: impl Fn(u64, usize) -> Result<T, QclabError> + Sync,
    mut merge: impl FnMut(usize, T),
) -> Result<Option<StopCause>, QclabError> {
    let latch = StopLatch::new();
    let mut slots: Vec<Option<T>> = Vec::new();
    let mut first = 0u64;
    while first < config.shots && !latch.is_tripped() {
        let round = (config.shots - first).min(ROUND_SHOTS) as usize;
        let batch = batch.min(round);
        slots.resize_with(round.div_ceil(batch), || None);
        let run_slot = |bi: usize, slot: &mut [Option<T>]| {
            if latch.is_tripped() {
                return;
            }
            if let Some(cause) = config.control.probe() {
                latch.trip(cause.into_error(crate::error::ExecProgress::default()));
                return;
            }
            let at = bi * batch;
            match run(first + at as u64, batch.min(round - at)) {
                Ok(done) => slot[0] = Some(done),
                Err(e) => latch.trip(e),
            }
        };
        let width = par::width(config.kernel.allow_parallel);
        par::for_each_chunk(width, &mut slots, 1, run_slot);
        for (bi, slot) in slots.drain(..).enumerate() {
            if let Some(done) = slot {
                merge(batch.min(round - bi * batch), done);
            }
        }
        first += round as u64;
    }
    latch.take().map(stop_or_err).transpose()
}

/// Adds the tally `from` to `into`.
pub(crate) fn merge_counts<K: Ord>(into: &mut BTreeMap<K, u64>, from: BTreeMap<K, u64>) {
    for (k, c) in from {
        *into.entry(k).or_insert(0) += c;
    }
}

/// What the finished lanes of one batch — or of a whole ensemble — add
/// up to.
#[derive(Default)]
struct Tally {
    /// Terminal draws by outcome index (rendered as records once per
    /// distinct outcome), per-qubit records as they are.
    outcomes: BTreeMap<usize, u64>,
    records: BTreeMap<String, u64>,
    injected: u64,
    norm: NormStats,
    /// A batch's observable values, lane-major — kept per lane so the
    /// ensemble sums them in shot order.
    expectations: Vec<f64>,
}

/// Executes one shot ensemble over a prepared [`ShotProgram`]: batches
/// through [`fan_out`], each tallied on its own and merged in shot
/// order.
fn run_ensemble(
    program: &CompiledProgram,
    prog: &ShotProgram,
    config: &TrajectoryConfig,
    empty: TrajectoryResult,
) -> Result<TrajectoryResult, QclabError> {
    // A batch is the unit of shared evolution and of the parallel
    // fan-out; serial execution is the batch of one. Per-shot RNG
    // streams make results independent of the grouping, so any width is
    // bit-identical.
    let batch = if config.shot_batch > 1 && config.shots > 1 {
        config.shot_batch
    } else {
        1
    };
    let terminal = prog.terminal.as_ref();
    // what a lane that never left the shared evolution reports
    let shared_norm = terminal
        .and_then(|t| t.shared.as_ref())
        .map_or(NormStats::default(), |table| table.norm);
    let observables = config.observables.len();
    let run_batch = |first: u64, count: usize| {
        let mut tally = Tally {
            expectations: vec![0.0; count * observables],
            ..Tally::default()
        };
        let finish = |lane: usize, measured: Measured, own: Option<ShotState>| {
            match measured {
                Measured::Outcome(k) => *tally.outcomes.entry(k).or_insert(0) += 1,
                Measured::Record(r) => *tally.records.entry(r).or_insert(0) += 1,
            }
            let Some(s) = own else {
                tally.norm.merge(&shared_norm);
                return;
            };
            tally.injected += s.injected.len() as u64;
            tally.norm.merge(&s.stats);
            let values = &mut tally.expectations[lane * observables..][..observables];
            for (value, o) in values.iter_mut().zip(&config.observables) {
                *value = o.expectation(&s.state);
            }
        };
        let start = prog.start.clone();
        run_shot_batch(
            program,
            &prog.bc,
            &prog.noise,
            terminal,
            start,
            config,
            first,
            count,
            finish,
        )?;
        Ok(tally)
    };
    let mut all = Tally {
        expectations: vec![0.0; observables],
        ..Tally::default()
    };
    let mut completed = 0u64;
    let stopped = fan_out(config, batch, run_batch, |count, done: Tally| {
        completed += count as u64;
        merge_counts(&mut all.outcomes, done.outcomes);
        merge_counts(&mut all.records, done.records);
        all.injected += done.injected;
        all.norm.merge(&done.norm);
        for lane in done.expectations.chunks_exact(observables.max(1)) {
            for (acc, e) in all.expectations.iter_mut().zip(lane) {
                *acc += e;
            }
        }
    })?;
    let mut counts = all.records;
    render_outcomes(
        all.outcomes,
        terminal.map_or(0, |t| t.block.measured.len()),
        &mut counts,
    );
    let mut expectations = all.expectations;
    if completed > 0 {
        for e in expectations.iter_mut() {
            *e /= completed as f64;
        }
    }
    Ok(TrajectoryResult {
        shots: completed,
        counts,
        injected_errors: all.injected,
        expectations,
        norm: all.norm,
        stopped,
        batch: batch as u64,
        ..empty
    })
}

/// One run: route and prepare, then sample under the same configuration.
fn run_alone(
    circuit: &QCircuit,
    initial: Option<&CVec>,
    config: &TrajectoryConfig,
) -> Result<TrajectoryResult, QclabError> {
    let route = route(circuit, config, initial)?;
    let (prepared, prep_hit) = prepare(&route, initial, config)?;
    Ok(TrajectoryResult {
        prep_hit,
        ..prepared.run(&route, config)?
    })
}

/// Samples `config.shots` trajectories of `circuit` from `|0…0⟩` and
/// aggregates counts, expectations and watchdog statistics.
pub fn run_trajectories(
    circuit: &QCircuit,
    config: &TrajectoryConfig,
) -> Result<TrajectoryResult, QclabError> {
    run_alone(circuit, None, config)
}

/// [`run_trajectories`] from an explicit initial state (dense engines
/// only).
pub fn run_trajectories_from(
    circuit: &QCircuit,
    initial: &CVec,
    config: &TrajectoryConfig,
) -> Result<TrajectoryResult, QclabError> {
    run_alone(circuit, Some(initial), config)
}

/// Runs a single trajectory (shot index `shot`) over the full schedule
/// and returns its final state, measurement record and injected errors.
/// Deterministic in `(config.seed, shot)`.
pub fn run_single_trajectory(
    circuit: &QCircuit,
    initial: &CVec,
    config: &TrajectoryConfig,
    shot: u64,
) -> Result<Trajectory, QclabError> {
    validate(circuit, Some(initial), config)?;
    let program = circuit.compile_with(&plan_options(config));
    let (bc, noise) = (program.bytecode(), NoisePlan::new(&program, &config.noise));
    let start = ShotState::new(initial.clone(), bc.n(), config.kernel, config.watchdog);
    let mut out = None;
    run_shot_batch(
        &program,
        &bc,
        &noise,
        None,
        start,
        config,
        shot,
        1,
        |_, measured, own| out = Some((measured, own)),
    )?;
    // invariant: a batch that returns `Ok` has finished every lane, and
    // without a terminal block every lane collapses its own state
    let Some((Measured::Record(record), Some(s))) = out else {
        unreachable!("a batch of one finishes one lane on its own state")
    };
    Ok(Trajectory {
        state: s.state,
        record,
        injected: s.injected,
        norm: s.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitItem;
    use crate::gates::factories::*;
    use crate::observable::PauliString;

    fn bell_measured() -> QCircuit {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        c
    }

    #[test]
    fn noiseless_bell_counts_are_correlated_and_near_half() {
        let config = TrajectoryConfig {
            shots: 2000,
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&bell_measured(), &config).unwrap();
        assert_eq!(r.total_counts(), 2000);
        // only the correlated outcomes occur
        assert!(r.counts().keys().all(|k| k == "00" || k == "11"));
        assert!((r.frequency("00") - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_in_seed_and_independent_of_parallelism() {
        let mk = |allow_parallel| TrajectoryConfig {
            shots: 300,
            seed: 7,
            kernel: KernelConfig {
                allow_parallel,
                ..KernelConfig::default()
            },
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::Depolarizing(0.05)),
                ..NoiseSpec::default()
            },
            ..TrajectoryConfig::default()
        };
        let a = run_trajectories(&bell_measured(), &mk(true)).unwrap();
        let b = run_trajectories(&bell_measured(), &mk(true)).unwrap();
        let c = run_trajectories(&bell_measured(), &mk(false)).unwrap();
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.counts(), c.counts());
        assert_eq!(a.injected_errors(), c.injected_errors());
        // a different seed gives a different sample
        let mut other = mk(true);
        other.seed = 8;
        let d = run_trajectories(&bell_measured(), &other).unwrap();
        assert_ne!(a.counts(), d.counts());
    }

    #[test]
    fn zero_noise_single_shot_matches_baseline_simulator_exactly() {
        // unitary circuit: the single branch must agree bit for bit
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(RotationY::new(2, 0.4321));
        c.push_back(CZ::new(1, 2));
        let init = CVec::basis_state(8, 0);
        let config = TrajectoryConfig::default();
        let t = run_single_trajectory(&c, &init, &config, 0).unwrap();
        let sim = c.simulate(&init).unwrap();
        let base = sim.states()[0];
        assert_eq!(t.state.len(), base.len());
        for (a, b) in t.state.iter().zip(base.iter()) {
            assert_eq!(a, b, "zero-noise trajectory diverged from baseline");
        }
        assert!(t.injected.is_empty());
    }

    #[test]
    fn bit_flip_before_measure_flips_deterministic_outcome() {
        // |0> measured with certain readout error: always reads 1
        let mut c = QCircuit::new(1);
        c.push_back(Measurement::z(0));
        let config = TrajectoryConfig {
            shots: 50,
            noise: NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(1.0)),
                ..NoiseSpec::default()
            },
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &config).unwrap();
        assert_eq!(r.frequency("1"), 1.0);
        assert_eq!(r.injected_errors(), 50);
    }

    #[test]
    fn depolarizing_noise_depolarizes_expectations() {
        // <Z> of |0> under depolarizing after a single gate layer:
        // E[Z] = 1 - 4p/3 (X and Y flip the sign, Z and I keep it)
        let mut c = QCircuit::new(1);
        c.push_back(Gate::PauliX(0)); // go to |1>, <Z> = -1
        let p = 0.3;
        let config = TrajectoryConfig {
            shots: 8000,
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::Depolarizing(p)),
                ..NoiseSpec::default()
            },
            observables: vec![Observable::new(1).term(1.0, "Z")],
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &config).unwrap();
        let expected = -(1.0 - 4.0 * p / 3.0);
        assert!(
            (r.expectations()[0] - expected).abs() < 0.03,
            "<Z> = {} vs {expected}",
            r.expectations()[0]
        );
    }

    #[test]
    fn idle_noise_hits_untouched_qubits() {
        // gate on q0 only; idle bit-flip with p = 1 must flip q1 and q2
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(1));
        c.push_back(Measurement::z(2));
        let config = TrajectoryConfig {
            shots: 20,
            noise: NoiseSpec {
                idle: Some(PauliChannel::BitFlip(1.0)),
                ..NoiseSpec::default()
            },
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &config).unwrap();
        assert_eq!(r.frequency("11"), 1.0);
    }

    #[test]
    fn invalid_specs_and_oversized_registers_error_cleanly() {
        let c = bell_measured();
        let bad = TrajectoryConfig {
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::BitFlip(1.5)),
                ..NoiseSpec::default()
            },
            ..TrajectoryConfig::default()
        };
        assert!(matches!(
            run_trajectories(&c, &bad),
            Err(QclabError::InvalidNoiseSpec(_))
        ));
        let tiny = TrajectoryConfig {
            limits: ResourceLimits::with_max_qubits(1),
            ..TrajectoryConfig::default()
        };
        assert!(matches!(
            run_trajectories(&c, &tiny),
            Err(QclabError::ResourceExhausted { .. })
        ));
        let wrong_obs = TrajectoryConfig {
            observables: vec![Observable::new(3).term(1.0, "ZZZ")],
            ..TrajectoryConfig::default()
        };
        assert!(matches!(
            run_trajectories(&c, &wrong_obs),
            Err(QclabError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn watchdog_reports_checks_and_renormalizes_forced_drift() {
        // many rotations accumulate (tiny) drift; force the watchdog to
        // act by setting an absurdly small tolerance
        let mut c = QCircuit::new(2);
        for i in 0..200 {
            c.push_back(RotationX::new(i % 2, 0.1));
        }
        let config = TrajectoryConfig {
            shots: 1,
            watchdog: WatchdogConfig {
                check_every: 8,
                tol: 0.0,
            },
            // unfused so each rotation counts as one watchdog step
            kernel: KernelConfig {
                fuse: false,
                ..KernelConfig::default()
            },
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &config).unwrap();
        assert!(r.norm_stats().checks >= 25);
        assert!(r.norm_stats().renormalizations >= 1);
        assert!(r.norm_stats().max_drift < 1e-12);
        // disabled watchdog performs no checks
        let off = TrajectoryConfig {
            shots: 1,
            watchdog: WatchdogConfig {
                check_every: 0,
                tol: 0.0,
            },
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &off).unwrap();
        assert_eq!(r.norm_stats().checks, 0);
    }

    #[test]
    fn resets_and_x_basis_measurements_sample_correctly() {
        // H|0> = |+>: X-basis measurement is deterministic 0; then reset
        // and Z-measure must read 0
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::x(0));
        c.push_back(CircuitItem::Reset(0));
        c.push_back(Measurement::z(0));
        let config = TrajectoryConfig {
            shots: 40,
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &config).unwrap();
        assert_eq!(r.frequency("00"), 1.0);
    }

    #[test]
    fn pauli_string_support_matches_injection() {
        // phase flips commute with Z measurement: outcome distribution
        // of a Z-basis-only circuit is unchanged by PhaseFlip noise
        let config = |noise| TrajectoryConfig {
            shots: 500,
            seed: 3,
            noise,
            ..TrajectoryConfig::default()
        };
        let mut c = QCircuit::new(1);
        c.push_back(Gate::PauliX(0));
        c.push_back(Measurement::z(0));
        let clean = run_trajectories(&c, &config(NoiseSpec::default())).unwrap();
        let flipped = run_trajectories(
            &c,
            &config(NoiseSpec {
                after_gate: Some(PauliChannel::PhaseFlip(0.5)),
                ..NoiseSpec::default()
            }),
        )
        .unwrap();
        assert_eq!(clean.counts(), flipped.counts());
        assert!(flipped.injected_errors() > 0);
        // sanity: PauliString helper agrees on what Z does to |1>
        let s = PauliString::parse("Z").unwrap();
        let mut v = CVec::basis_state(2, 1);
        s.apply(&mut v);
        assert!((v[1].re + 1.0).abs() < 1e-15);
    }

    #[test]
    fn shot_path_selection_matches_plan_and_noise() {
        let base = || TrajectoryConfig {
            shots: 32,
            ..TrajectoryConfig::default()
        };
        // noiseless + terminal measurements → alias sampled (H + CNOT
        // fuse into one op under the default kernel config)
        let r = run_trajectories(&bell_measured(), &base()).unwrap();
        assert_eq!(r.path(), ShotPath::AliasSampled { prefix_ops: 1 });
        assert_eq!(r.total_counts(), 32);
        // opt-out forces the plain per-shot engine
        let cfg = TrajectoryConfig {
            reference: Reference::NoSharing,
            ..base()
        };
        let r = run_trajectories(&bell_measured(), &cfg).unwrap();
        assert_eq!(r.path(), ShotPath::PerShot);
        // observables need per-shot final states → fork, not alias
        let cfg = TrajectoryConfig {
            observables: vec![Observable::new(2).term(1.0, "ZZ")],
            ..base()
        };
        let r = run_trajectories(&bell_measured(), &cfg).unwrap();
        assert_eq!(r.path(), ShotPath::Forked { prefix_ops: 1 });
        // noisy Clifford circuit → the Pauli-frame sampler takes it
        let noisy = |reference| TrajectoryConfig {
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::BitFlip(0.1)),
                ..NoiseSpec::default()
            },
            reference,
            ..base()
        };
        let r = run_trajectories(&bell_measured(), &noisy(Reference::Product)).unwrap();
        assert_eq!(r.path(), ShotPath::PauliFrame);
        assert_eq!(r.total_counts(), 32);
        // frame opt-out + gate noise → every gate is a noise site, so
        // no deterministic prefix remains
        let r = run_trajectories(&bell_measured(), &noisy(Reference::NoFrames)).unwrap();
        assert_eq!(r.path(), ShotPath::PerShot);
        // readout noise strikes only in the suffix → with frames off,
        // the fork path stays on, over the same fused plan
        let cfg = TrajectoryConfig {
            noise: NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(0.1)),
                ..NoiseSpec::default()
            },
            reference: Reference::NoFrames,
            ..base()
        };
        let r = run_trajectories(&bell_measured(), &cfg).unwrap();
        assert_eq!(r.path(), ShotPath::Forked { prefix_ops: 1 });
        // a channel that cannot fire is not noise: the run is routed —
        // and sampled — as if the flag were absent
        let never = TrajectoryConfig {
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::Depolarizing(0.0)),
                before_measure: Some(PauliChannel::BitFlip(0.0)),
                ..NoiseSpec::default()
            },
            ..base()
        };
        let r = run_trajectories(&bell_measured(), &never).unwrap();
        assert_eq!(r.path(), ShotPath::AliasSampled { prefix_ops: 1 });
        let plain = run_trajectories(&bell_measured(), &base()).unwrap();
        assert_eq!(r.counts(), plain.counts());
        // a non-Clifford gate keeps a noisy run off the frame path even
        // with frames enabled
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(RotationY::new(1, 0.3));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        let cfg = TrajectoryConfig {
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::BitFlip(0.1)),
                ..NoiseSpec::default()
            },
            ..base()
        };
        let r = run_trajectories(&c, &cfg).unwrap();
        assert_eq!(r.path(), ShotPath::PerShot);
    }

    #[test]
    fn forked_runs_are_bit_identical_to_per_shot() {
        // re-measured qubit + reset keep the alias path off under every
        // plan; the forked engine must reproduce the per-shot engine
        // exactly
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(RotationY::new(2, 0.7));
        c.push_back(Measurement::z(0));
        c.push_back(Hadamard::new(2));
        c.push_back(Measurement::x(2));
        c.push_back(CircuitItem::Reset(0));
        c.push_back(Measurement::z(0));
        for noise in [
            NoiseSpec::default(),
            NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(0.05)),
                ..NoiseSpec::default()
            },
        ] {
            let mk = |reference| TrajectoryConfig {
                shots: 200,
                seed: 11,
                reference,
                noise,
                ..TrajectoryConfig::default()
            };
            let fast = run_trajectories(&c, &mk(Reference::Product)).unwrap();
            let slow = run_trajectories(&c, &mk(Reference::NoSharing)).unwrap();
            // noisy or not, both run the one fused plan; both must fork
            assert!(matches!(fast.path(), ShotPath::Forked { prefix_ops } if prefix_ops > 0));
            assert_eq!(slow.path(), ShotPath::PerShot);
            assert_eq!(fast.counts(), slow.counts());
            assert_eq!(fast.injected_errors(), slow.injected_errors());
            assert_eq!(fast.norm_stats(), slow.norm_stats());
        }
    }

    #[test]
    fn alias_path_reproduces_deterministic_marginals() {
        // |1⟩ ⊗ |+⟩: q0 reads 1 in Z, q1 reads 0 in X — both certain
        let mut c = QCircuit::new(2);
        c.push_back(Gate::PauliX(0));
        c.push_back(Hadamard::new(1));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::x(1));
        let config = TrajectoryConfig {
            shots: 100,
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &config).unwrap();
        assert!(matches!(r.path(), ShotPath::AliasSampled { .. }));
        assert_eq!(r.counts().get("10"), Some(&100));
        // zero shots: both engines report empty counts
        let none = TrajectoryConfig {
            shots: 0,
            ..TrajectoryConfig::default()
        };
        let r = run_trajectories(&c, &none).unwrap();
        assert_eq!(r.total_counts(), 0);
        assert!(r.counts().is_empty());
    }

    #[test]
    fn streamed_marginal_tiles_are_the_marginals() {
        // measured subsets in shuffled order, m < n and m = n, on both
        // sides of the lookup tile: every weight bit for bit
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 3, 7, 12, 13, 15] {
            let mut state: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            // zero runs: empty outcomes between live ones
            for z in state.iter_mut().step_by(3) {
                *z = C64::new(0.0, 0.0);
            }
            for _ in 0..8 {
                let mut measured: Vec<usize> = (0..n).filter(|_| rng.gen::<bool>()).collect();
                if rng.gen::<bool>() {
                    measured = (0..n).collect();
                }
                for i in (1..measured.len()).rev() {
                    measured.swap(i, rng.gen_range(0..=i));
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
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 3, 7, 12, 13, 15] {
            let state: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            for _ in 0..8 {
                let mut measured: Vec<usize> = (0..n).filter(|_| rng.gen::<bool>()).collect();
                for i in (1..measured.len()).rev() {
                    measured.swap(i, (rng.gen::<f64>() * (i + 1) as f64) as usize);
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
