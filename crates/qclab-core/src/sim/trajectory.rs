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
//! This module holds a run's public types and its entry points, each of
//! which routes ([`route`]: sparse → Pauli frames → terminal table →
//! fork/per-shot), prepares (`sim::prep`) and runs (`sim::shots`,
//! [`super::sampler`] or [`super::frame`]).
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
use crate::observable::{Observable, Pauli};
use crate::program::PlanOptions;
use crate::sim::control::{stop_or_err, ExecutionControl, StopCause};
use crate::sim::guard::ResourceLimits;
use crate::sim::kernel::KernelConfig;
use crate::sim::route::{route, BackendRequest, Route};
use crate::sim::shots::{run_shot_batch, Measured, ShotState};
use crate::sim::walk::NoisePlan;
use crate::sim::{check_initial, prep};
use qclab_math::rng::{mix64, Rng};
use qclab_math::CVec;
use std::collections::BTreeMap;
use std::fmt;

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
    pub(crate) fn strikes_gates(&self) -> bool {
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
    pub(super) fn merge(&mut self, other: &NormStats) {
        self.checks += other.checks;
        self.renormalizations += other.renormalizations;
        self.max_drift = self.max_drift.max(other.max_drift);
    }

    /// The merge of `lanes` lanes that each report `self`.
    pub(super) fn times(&self, lanes: u64) -> NormStats {
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
    /// evolves what its shots share once — a collapse splits it by
    /// outcome — and each shot goes on alone from its first hit. Per-shot
    /// `(seed, shot)` RNG streams make every shot independent of the
    /// batch grouping, so results are bit-identical at any batch size;
    /// `<= 1` is the serial engine (the batch of one). Shots of a batch
    /// that share a measurement history share one state, so a batch
    /// holds at most `1 + ⌊log₂ shot_batch⌋` states and one scratch
    /// vector; past the three vectors of a state and one lane, only as
    /// many as [`limits`](Self::limits) admits for every batch running
    /// at once.
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
    /// No run-wide shared evolution: every batch evolves from op 0 — no
    /// forked prefix, no run-wide terminal table, no sparse prefix
    /// sampling (the Pauli frames stay eligible). Within a batch, shots
    /// that share a history still share a state and its table;
    /// [`TrajectoryConfig::shot_batch`] `= 1` is the per-shot engine.
    /// Results are `==` the product's.
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
    /// streamed over the state when no later run could draw from the table
    /// ([`TerminalDraw`](super::route::TerminalDraw)). ("Alias" is historical — the table is
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
    pub(super) nb_qubits: usize,
    pub(super) shots: u64,
    pub(super) requested_shots: u64,
    pub(super) counts: BTreeMap<String, u64>,
    pub(super) injected_errors: u64,
    pub(super) expectations: Vec<f64>,
    pub(super) norm: NormStats,
    pub(super) path: ShotPath,
    /// `Some` when the ensemble was stopped early by its
    /// [`ExecutionControl`]; `shots` then counts only the completed
    /// trajectories.
    pub(super) stopped: Option<StopCause>,
    /// Shot-batch width the run executed with (1 = serial).
    pub(super) batch: u64,
    /// The one-time preparation came from the plan, not from this run.
    pub(super) prep_hit: bool,
}

impl TrajectoryResult {
    /// The result of `route` under `config` before any shot completed:
    /// what a run stopped in its one-time preparation reports, and what
    /// every executing arm fills in.
    pub(super) fn empty(route: &Route, config: &TrajectoryConfig) -> Self {
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

/// Version of the seed contract: what a `(circuit, seed, shots)` triple
/// maps to. Bumped by every change that can alter a sampled record or an
/// injected-error count at a fixed seed — a *declared* break, listed in
/// CHANGES.md with old and new goldens (each `tests/golden/<name>/<n>.txt` keys its
/// rows on this number). History: 1 = PR 13 (thread-count-invariant
/// reductions at n ≥ 18), 2 = PR 16 (a terminal block is one draw),
/// 3 = PR 19 (noise walked hit to hit), 4 = noisy state-vector shots run
/// the fused plan (amplitude ulps; hits and the RNG stream unchanged).
pub const SEED_CONTRACT: u32 = 4;

/// Derives the per-shot RNG: a SplitMix64-style avalanche of the
/// `(seed, shot)` pair, so consecutive shots get uncorrelated streams and
/// results are independent of execution order. Part of the seed
/// contract: its first draws are pinned by `tests/rng_known_answers.rs`.
pub fn shot_rng(seed: u64, shot: u64) -> Rng {
    Rng::seed_from_u64(mix64(seed ^ shot.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Validates the register, initial state (`None` = `|0…0⟩`, valid by
/// construction), noise spec and observables of a run. Allocates nothing.
pub(crate) fn validate(
    circuit: &QCircuit,
    initial: Option<&CVec>,
    config: &TrajectoryConfig,
) -> Result<(), QclabError> {
    let n = circuit.nb_qubits();
    let dim = config.limits.check_register(n)?;
    if let Some(initial) = initial {
        check_initial(dim, initial.len(), initial.norm())?;
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

/// One run: route and prepare, then sample under the same configuration.
fn run_alone(
    circuit: &QCircuit,
    initial: Option<&CVec>,
    config: &TrajectoryConfig,
) -> Result<TrajectoryResult, QclabError> {
    let route = route(circuit, config, initial)?;
    let (prepared, prep_hit) = match prep::prepare(&route, initial, config) {
        Ok(prepared) => prepared,
        // stopped in the one-time preparation: no shot completed
        Err(e) => {
            let stopped = Some(stop_or_err(e)?);
            return Ok(TrajectoryResult {
                stopped,
                ..TrajectoryResult::empty(&route, config)
            });
        }
    };
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
    let program = crate::program::compile(circuit, &PlanOptions::from(&config.kernel));
    let noise = NoisePlan::new(&program, &config.noise);
    let n = circuit.nb_qubits();
    let start = ShotState::new(initial.clone(), n, config.kernel, config.watchdog);
    let mut out = None;
    run_shot_batch(
        &program,
        &noise,
        None,
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
    use crate::gates::Gate;
    use crate::measurement::Measurement;
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
}
