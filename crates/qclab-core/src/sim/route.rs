//! The one place that picks dense or sparse, for both run kinds of the
//! paper's API: the branch tree (`simulate`/`counts`, Sec. 3) and
//! sampled shots. [`resolve`] turns a [`BackendRequest`] into a
//! [`BackendChoice`]. `Dense` checks only the dense register guard and
//! lowers nothing; `Auto` and `Sparse` read the support bound of the
//! unfused plan ([`PlanOptions::unfused`]), so they lower it and hand it
//! back.
//!
//! - **Branch tree** ([`QCircuit::simulate_bitstring_routed`]): the
//!   sparse executor runs the unfused plan `resolve` read, the dense
//!   engine lowers its own fused plan. Its one fallback: under `Auto`, a
//!   dense run refused mid-flight or stopped by its deadline retries on
//!   sparse if the sparse guard admits the unfused plan already held.
//! - **Sampled run** ([`route`]): decided once, before anything is
//!   allocated — sparse prefix sampling or Pauli frames on the unfused
//!   plan, otherwise the fused plan. No fallback after the fact: `Auto`
//!   falls through to dense when the sparse path cannot sample the
//!   program, `Sparse` is refused there. A dense noiseless terminal
//!   block is drawn from a table only when a later run can draw from it
//!   as well — its plan resident in the plan cache or held by another
//!   caller — when the shots' points outweigh it, or when it spans one
//!   tile of outcomes; otherwise the draw streams over the state
//!   ([`TerminalDraw::Streamed`]), bit for bit the table's outcomes.

use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::program::{self, CompiledProgram, PlanOptions, PlanStats};
use crate::sim::guard::{self, ResourceLimits};
use crate::sim::prep::retainable;
use crate::sim::sampler::TILE;
use crate::sim::sparse::{self, SparseState};
use crate::sim::trajectory::{self, Reference, ShotPath, TrajectoryConfig};
use crate::sim::{RoutedState, SimOptions, Simulation};
use qclab_math::CVec;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Executor family a caller asks for. [`Auto`](BackendRequest::Auto)
/// lets [`resolve`] pick; the other two pin the decision (and fail if
/// that executor's guard refuses the program).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendRequest {
    /// Let [`resolve`] pick per program.
    Auto,
    /// Dense state vector, guard-checked against `2^n` bytes.
    #[default]
    Dense,
    /// Sparse hashmap state, guard-checked against the live-entry cap.
    Sparse,
}

impl fmt::Display for BackendRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendRequest::Auto => write!(f, "auto"),
            BackendRequest::Dense => write!(f, "dense"),
            BackendRequest::Sparse => write!(f, "sparse"),
        }
    }
}

/// The executor [`resolve`] selected for one program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// Dense `2^n`-amplitude execution.
    Dense,
    /// Sparse execution; `est_entries` is the support bound the
    /// decision was based on ([`PlanStats::sparse_entries`]).
    Sparse {
        /// Upper bound on live entries used for admission.
        est_entries: u128,
    },
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendChoice::Dense => write!(f, "dense"),
            BackendChoice::Sparse { est_entries } => {
                write!(f, "sparse (est ≤ {est_entries} entries)")
            }
        }
    }
}

/// Work-ratio margin of the `Auto` choice: hashmap traffic makes one
/// sparse entry cost roughly this many dense amplitude updates, so
/// sparse only wins when its estimated footprint is at least this factor
/// below the dense one.
const SPARSE_CROSSOVER_FACTOR: u128 = 8;

/// The sparse guard on a plan's support bound.
fn sparse_admits(stats: &PlanStats, n: usize, limits: &ResourceLimits) -> Result<(), QclabError> {
    limits.check_sparse_register(n)?;
    limits.check_sparse_entries(n, stats.sparse_entries)
}

/// The engine `request` resolves to for `circuit` under `limits`, and the
/// unfused plan the decision read (`None` under `Dense`). A pinned request
/// checks only its own engine's guard. `Auto` picks sparse when the sparse
/// guard admits the support bound *and* it undercuts the dense footprint
/// by `SPARSE_CROSSOVER_FACTOR` (8) or dense is refused outright; dense
/// otherwise, or the dense refusal when neither representation fits.
pub fn resolve(
    request: BackendRequest,
    circuit: &QCircuit,
    limits: &ResourceLimits,
) -> Result<(BackendChoice, Option<Arc<CompiledProgram>>), QclabError> {
    let n = circuit.nb_qubits();
    if request == BackendRequest::Dense {
        limits.check_register(n)?;
        return Ok((BackendChoice::Dense, None));
    }
    // every plan of the circuit reports the same bound; the unfused one
    // builds no dense fused blocks for a register dense may not admit
    let unfused = program::compile(circuit, &PlanOptions::unfused());
    let stats = unfused.stats();
    let admitted = sparse_admits(stats, n, limits);
    let est = stats.sparse_entries;
    if request == BackendRequest::Auto {
        let dense = limits.check_register(n);
        // a dense state beyond u128 bytes loses to any admitted support
        let sparse_wins = stats.state_bytes.is_none_or(|dense_bytes| {
            est.saturating_mul(guard::SPARSE_ENTRY_BYTES * SPARSE_CROSSOVER_FACTOR) <= dense_bytes
        });
        if admitted.is_err() || (!sparse_wins && dense.is_ok()) {
            dense?;
            return Ok((BackendChoice::Dense, Some(unfused)));
        }
    }
    admitted?;
    Ok((BackendChoice::Sparse { est_entries: est }, Some(unfused)))
}

/// The branch tree of `circuit` from the basis state `bits` on the engine
/// `request` resolves to, with its one fallback (module doc).
pub(crate) fn branch_tree(
    circuit: &QCircuit,
    bits: &str,
    opts: &SimOptions,
    request: BackendRequest,
) -> Result<Simulation<RoutedState>, QclabError> {
    let n = circuit.nb_qubits();
    if bits.len() != n {
        return Err(QclabError::InvalidBitstring(bits.to_string()));
    }
    let (choice, unfused) = resolve(request, circuit, &opts.limits)?;
    let program = match (choice, unfused) {
        (BackendChoice::Sparse { .. }, Some(program)) => program,
        // on a dense choice only `Auto` holds the unfused plan
        (_, unfused) => {
            // `resolve` ran the dense register guard before this 2^n buffer
            let initial = CVec::from_bitstring(bits)
                .ok_or_else(|| QclabError::InvalidBitstring(bits.to_string()))?;
            let err = match circuit.simulate_with(&initial, opts) {
                Ok(sim) => return sim.map_states(|s| Ok(RoutedState::Dense(s))),
                Err(err) => err,
            };
            // A post-timeout retry keeps the original deadline: sparse ops
            // are cheap enough that a small program can finish before the
            // next check fires, and otherwise the retry stops within one
            // check interval.
            let retry = matches!(
                err,
                QclabError::ResourceExhausted { .. } | QclabError::DeadlineExceeded(_)
            );
            unfused
                .filter(|p| retry && sparse_admits(p.stats(), n, &opts.limits).is_ok())
                .ok_or(err)?
        }
    };
    let initial = SparseState::from_bitstring(bits)
        .ok_or_else(|| QclabError::InvalidBitstring(bits.to_string()))?;
    sparse::execute(&program, initial, opts)?.map_states(|s| Ok(RoutedState::Sparse(s)))
}

/// How a trajectory run executes, decided by [`route`] before anything
/// is allocated: every consumer — the run itself, `qclab compile`, the
/// tests — reads this one record instead of restating the rules.
#[derive(Clone, Debug)]
pub struct Route {
    /// The engine, the shot strategy and the ops evolved once: what the
    /// run's [`TrajectoryResult::path`](trajectory::TrajectoryResult::path) reports.
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
    /// table); `None` elsewhere. It is the draw the run takes, read with
    /// what holds the plan when the run is routed.
    pub draw: Option<TerminalDraw>,
    /// The rule that decided the route.
    pub why: &'static str,
}

/// How a dense terminal block is drawn ([`Route::draw`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalDraw {
    /// From the marginal's cumulative table ([`CdfTable`](crate::sim::sampler::CdfTable)).
    Table {
        /// The table's size: 8 B per outcome.
        bytes: u128,
    },
    /// From the rotated state itself: a serial pass over its marginal
    /// for the total, then a team pass over the tiles that hold a point
    /// (`sampler::CdfStream`). A noiseless run whose table no later run
    /// could draw from, spans more than one tile of outcomes and would
    /// outweigh the run's sorted points (16 B a shot). No later run can
    /// draw from it when the plan is neither resident in the plan cache
    /// nor held by another caller, when the run starts from an explicit
    /// initial state (no key keeps its table), or when the table is over
    /// [`crate::program::RETAINED_BYTES_CAP`]. Every outcome is the
    /// table's.
    Streamed,
}

/// Bytes a streamed terminal draw holds per shot: an 8-byte point in the
/// sort buffer, and as much again for the outcome tally it feeds.
const STREAM_BYTES_PER_SHOT: u128 = 16;

/// How `config`'s run draws the terminal block of the dense `program`:
/// streamed when it is noiseless, no later run can draw from its table
/// — the plan is not `kept` beyond this run, or the table is over
/// [`crate::program::RETAINED_BYTES_CAP`] — and the shots' points weigh
/// less than the table; from the table otherwise. A marginal of one
/// [`TILE`] (32 KiB of table at most) is always tabulated: a stream
/// would read all of it again for its first point, the state twice
/// where the table reads it once. Noisy lanes share the table whatever
/// its size.
fn terminal_draw(program: &CompiledProgram, config: &TrajectoryConfig, kept: bool) -> TerminalDraw {
    let m = program.shot_plan().measured_qubits.len();
    let bytes = (std::mem::size_of::<f64>() as u128) << m;
    let points = STREAM_BYTES_PER_SHOT.saturating_mul(config.shots.into());
    let one_tile = m <= TILE.ilog2() as usize;
    let tabulate = (kept || one_tile) && retainable(bytes);
    if config.noise.is_noiseless() && !tabulate && points < bytes {
        TerminalDraw::Streamed
    } else {
        TerminalDraw::Table { bytes }
    }
}

/// `true` when a run's lanes end in one terminal draw: the program ends
/// in a terminal measurement block and no observable reads the
/// post-measurement state.
pub(crate) fn ends_in_draw(program: &CompiledProgram, config: &TrajectoryConfig) -> bool {
    program.shot_plan().terminal_measurements && config.observables.is_empty()
}

/// Routes a run — sparse → Pauli frames → terminal table → fork or per
/// shot — without allocating any state or touching a plan's retained
/// preparation: it lowers (through the plan cache) only the plans the
/// decision reads, and returns the refusals a run meets before its
/// one-time preparation, in the order the run meets them.
/// `initial: None` starts from `|0…0⟩` and considers every engine; an
/// explicit initial state (validated here, never copied) pins the dense
/// ones. The terminal draw follows retention ([`TerminalDraw::Streamed`]):
/// a caller that means to run a plan again holds it across the calls,
/// and the route states the draw the run takes with what holds the plan
/// at the time.
pub fn route(
    circuit: &QCircuit,
    config: &TrajectoryConfig,
    initial: Option<&CVec>,
) -> Result<Route, QclabError> {
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
    let held = OnceLock::new();
    let unfused =
        || Arc::clone(held.get_or_init(|| program::compile(circuit, &PlanOptions::unfused())));
    // Backend routing happens before the dense `|0…0⟩` guard, so
    // sparse-eligible wide registers are not refused on the dense byte
    // estimate.
    if initial.is_none() && config.backend != BackendRequest::Dense {
        let (choice, read) = resolve(config.backend, circuit, &config.limits)?;
        if let Some(plan) = read {
            let _ = held.set(plan);
        }
        if let BackendChoice::Sparse { .. } = choice {
            let program = unfused();
            if shares && noiseless && ends_in_draw(&program, config) {
                config.noise.validate()?;
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
    let options = PlanOptions::from(&config.kernel);
    let compile = || Arc::clone(fused.get_or_init(|| program::compile(circuit, &options)));
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
    trajectory::validate(circuit, initial, config)?;
    let program = compile();
    // A table outlives the run only on a plan something else keeps: the
    // plan cache (resident) or another caller. With this route's own
    // handles gone, any other count is theirs; a run from an explicit
    // initial state has no key to keep a table under.
    drop((fused, held));
    let kept = initial.is_none() && Arc::strong_count(&program) > 1;
    // a draw that reads its layout in place forks before the restore
    let plan = program.shot_plan();
    let prefix_ops = if ends_in_draw(&program, config) {
        plan.draw_ops()
    } else {
        plan.prefix_ops
    };
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
    let draw = tabulated.then(|| terminal_draw(&program, config, kept));
    Ok(routed(path, program, tabulated && !noiseless, draw, why))
}
