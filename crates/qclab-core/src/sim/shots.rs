//! The shots stage: takes a prepared state-vector ensemble
//! ([`ShotProgram`], built by `sim::prep`) and returns its
//! [`TrajectoryResult`]. Batches fan out over threads ([`fan_out`],
//! which the Pauli frames share) and merge in shot order; every shot
//! dispatches the plan's bytecode through one per-instruction body,
//! [`ShotState::step`], and serial execution is the batch of one.
//!
//! **One plan, noisy or not.** A noisy shot executes the same fused,
//! relabeled plan a noiseless one does (they share its plan-cache entry,
//! bytecode and retained terminal table). Noise sites stay numbered on
//! the *source* schedule, so a lane first takes its draws in source
//! order as far as its last hit (`NoisePlan::draw_shot`: the hits, and
//! the uniform of every collapse among them), maps each hit to where it
//! lands in the plan (`walk::Landings`) and sorts them — fusion merges
//! gates backward, so landing order is not stream order — and only then
//! executes. A hit between two ops is a Pauli between two kernels; an op
//! with a hit *inside* it is replayed from its source gates, that op
//! only. A lane with no hit before a terminal block draws from the
//! shared table without a state; one that injected an error tabulates
//! its own ([`ShotState::measure_terminal`]). Per-qubit collapse
//! ([`ShotState::sample_z`]) remains where a post-measurement state is
//! consumed: mid-circuit measurements, resets, observables,
//! `run_single_trajectory`.

use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::Measurement;
use crate::observable::Pauli;
use crate::program::{CompiledProgram, ProgramOp};
use crate::sim::bytecode::Instr;
use crate::sim::control::{stop_or_err, ControlTicker, StopCause, StopLatch};
use crate::sim::kernel::{self, KernelConfig};
use crate::sim::prep::{marginal, tile_lut, SampledPrep};
use crate::sim::sampler::{render_outcomes, CdfTable};
use crate::sim::trajectory::{
    shot_rng, InjectedPauli, NormStats, TrajectoryConfig, TrajectoryResult, WatchdogConfig,
};
use crate::sim::walk::{Landing, NoisePlan, ShotDraws};
use crate::sim::{collapse, par};
use qclab_math::rng::Rng;
use qclab_math::CVec;
use std::collections::BTreeMap;
use std::sync::Arc;

fn pauli_gate(p: Pauli, q: usize) -> Option<Gate> {
    match p {
        Pauli::I => None,
        Pauli::X => Some(Gate::PauliX(q)),
        Pauli::Y => Some(Gate::PauliY(q)),
        Pauli::Z => Some(Gate::PauliZ(q)),
    }
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
    rng: Rng,
}

impl LaneDraws {
    /// Addresses a shot's draws — its hits in stream order and the
    /// collapse uniforms among them — to `program`; `rng` is the stream
    /// they were taken from.
    fn land(
        program: &CompiledProgram,
        drawn: &[InjectedPauli],
        collapses: Vec<f64>,
        rng: Rng,
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
        ahead.unwrap_or_else(|| self.rng.f64())
    }
}

/// State of one in-flight shot: the vector, its position in the
/// instruction stream, and the watchdog bookkeeping.
#[derive(Clone)]
pub(super) struct ShotState {
    pub(super) state: CVec,
    scratch: CVec,
    pub(super) n: usize,
    kernel: KernelConfig,
    watchdog: WatchdogConfig,
    pub(super) stats: NormStats,
    gates_since_check: usize,
    /// The shot's hits in stream order — known before the lane executes
    /// (`lane_fork`), recorded here for the result.
    pub(super) injected: Vec<InjectedPauli>,
    /// Active logical→physical layout from the locality pass (`None` =
    /// identity). Hits and replayed source gates name logical qubits and
    /// are translated through it.
    pub(super) map: Option<Vec<usize>>,
    /// Cursor: index of the next instruction in the stream …
    pc: usize,
    /// … and schedule index of the next op. Inside a window the two
    /// differ in pace: `op − first` of its gates are already applied.
    op: usize,
}

impl ShotState {
    /// A shot standing at op 0 of `initial`.
    pub(super) fn new(
        initial: CVec,
        n: usize,
        kernel: KernelConfig,
        watchdog: WatchdogConfig,
    ) -> Self {
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
    /// collapse pair enumerates amplitudes in logical index order
    /// ([`collapse`]), so probabilities — and therefore the comparison with `r`
    /// and the drawn bit — are bit-identical to the unremapped engine.
    fn sample_z(&mut self, q: usize, r: f64) -> usize {
        let map = self.map.as_deref();
        let (p0, p1) = collapse::measure_probabilities(&self.state, self.n, q, map);
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
        collapse::collapse_into(&self.state, self.n, q, bit, p, map, &mut self.scratch);
        std::mem::swap(&mut self.state, &mut self.scratch);
        bit
    }

    /// Samples a measurement in its basis (rotate in, Z-sample, rotate
    /// back), mirroring the branching simulator's basis handling. The
    /// basis rotation is a physical single-qubit gate, so it targets the
    /// measured qubit's physical slot.
    fn sample_measurement(&mut self, m: &Measurement, r: f64) -> usize {
        let q = m.qubit();
        let Some((vdg, v)) = m.basis().change_gates(self.physical(q)) else {
            return self.sample_z(q, r);
        };
        kernel::apply_gate_with(&vdg, &mut self.state, self.n, &self.kernel);
        let bit = self.sample_z(q, r);
        kernel::apply_gate_with(&v, &mut self.state, self.n, &self.kernel);
        bit
    }

    /// The cumulative outcome table of `block` on this state — the one
    /// build behind every terminal draw, whether the state is the run's
    /// shared noiseless evolution or a diverged lane's own: the
    /// end-of-shot norm check, each measured qubit rotated into its
    /// basis, the joint marginal, prefix-summed in place. The state is
    /// consumed as a state (left rotated); its layout is the identity,
    /// which lowering guarantees at a terminal block.
    pub(super) fn terminal_table(&mut self, block: &TerminalBlock) -> Result<CdfTable, QclabError> {
        self.rotate_terminal(block);
        CdfTable::new(marginal(&self.state, &block.measured, self.n, &block.lut))
    }

    /// The state a terminal block is drawn from, table or stream: the
    /// end-of-shot norm check, then each measured qubit rotated into its
    /// basis.
    pub(super) fn rotate_terminal(&mut self, block: &TerminalBlock) {
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
pub(super) struct ShotProgram {
    /// The run's noise laws over the program's site numbering.
    pub(super) noise: NoisePlan,
    /// The state every shot starts from: `|initial⟩` at op 0, or — on
    /// the fork path — the snapshot after the deterministic prefix,
    /// carrying its cursor, watchdog counters and layout so per-shot
    /// statistics match the unforked engine exactly.
    pub(super) start: ShotState,
    /// `Some` when the program ends in a terminal measurement block and
    /// no observable reads the post-measurement state: lanes then end in
    /// one draw instead of per-qubit collapses.
    pub(super) terminal: Option<TerminalBlock>,
    /// The table of the run's noiseless evolution, which every lane that
    /// injects nothing before the terminal block draws from. `None` on
    /// [`Reference::NoSharing`](super::trajectory::Reference::NoSharing):
    /// every lane then tabulates its own state.
    pub(super) shared: Option<Arc<SampledPrep>>,
}

/// The measurements of a terminal block
/// ([`ShotPlan::terminal_measurements`](crate::program::ShotPlan)), as
/// the one draw reads them.
pub(super) struct TerminalBlock {
    /// Schedule index of the block's first op (the prefix length).
    pub(super) first: usize,
    /// Measured qubits in execution order (first = most significant
    /// outcome bit).
    pub(super) measured: Vec<usize>,
    /// The `V†` that brings each non-Z measurement into the
    /// computational basis. The measured qubits are pairwise distinct,
    /// so the rotations commute and the Z-basis joint marginal of the
    /// rotated state is exactly the joint outcome distribution of the
    /// measurements taken one by one.
    pub(super) rotations: Vec<Gate>,
    /// [`tile_lut`] of the measured qubits, built once for every lane
    /// that tabulates its own state.
    lut: Vec<usize>,
}

impl TerminalBlock {
    pub(super) fn of(program: &CompiledProgram) -> TerminalBlock {
        let plan = program.shot_plan();
        debug_assert!(plan.terminal_measurements);
        let rotations = program.ops()[plan.prefix_ops..]
            .iter()
            .filter_map(|op| match op {
                ProgramOp::Measure(m) => m.basis().change_gates(m.qubit()).map(|(vdg, _)| vdg),
                _ => None,
            });
        TerminalBlock {
            first: plan.prefix_ops,
            measured: plan.measured_qubits.clone(),
            rotations: rotations.collect(),
            lut: tile_lut(&plan.measured_qubits, program.nb_qubits()),
        }
    }
}

/// What a lane measured: the record of per-qubit collapses, or the
/// outcome index of one terminal draw (measurement `j` is bit `m−1−j`).
pub(super) enum Measured {
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
/// With a terminal `block`, a lane ends in one outcome draw
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
pub(super) fn run_shot_batch(
    program: &CompiledProgram,
    noise: &NoisePlan,
    block: Option<&TerminalBlock>,
    shared: Option<&SampledPrep>,
    mut reference: ShotState,
    config: &TrajectoryConfig,
    first: u64,
    count: usize,
    mut finish: impl FnMut(usize, Measured, Option<ShotState>),
) -> Result<(), QclabError> {
    let bc = program.bytecode();
    let stream = &bc.stream;
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

/// Evolves the deterministic prefix (the first `prefix` ops — gates,
/// fences and layout permutations only, by construction of
/// [`crate::program::ShotPlan`]) once from `initial`, on the plan's
/// cached stream with full watchdog bookkeeping. The returned state
/// carries the cursor, watchdog counters and layout forked shots resume
/// from.
pub(super) fn evolve_prefix(
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
pub(super) fn run_ensemble(
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
    // what a lane that never left the shared evolution reports
    let shared_norm = prog
        .shared
        .as_ref()
        .map_or(NormStats::default(), |t| t.norm);
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
            &prog.noise,
            prog.terminal.as_ref(),
            prog.shared.as_deref(),
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
    let m = prog.terminal.as_ref().map_or(0, |b| b.measured.len());
    merge_counts(&mut counts, render_outcomes(all.outcomes, m));
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
