//! The shots stage: takes a prepared state-vector ensemble
//! ([`ShotProgram`], built by `sim::prep`) and returns its
//! [`TrajectoryResult`]. Batches fan out over threads ([`fan_out`],
//! which the Pauli frames share) and merge in shot order; every shot
//! dispatches the plan's bytecode through one per-instruction body,
//! [`ShotState::step`], and serial execution is the batch of one.
//!
//! **One state per history.** A batch is walked as groups
//! ([`run_shot_batch`]): shots with the same ops and the same collapse
//! outcomes so far, and no hit yet, share one state. A mid-circuit
//! measurement or reset computes its `(p0, p1)` once per group, each shot
//! draws its own uniform against it, and the group splits by outcome —
//! so teleportation's batch evolves one state per Bell outcome, not one
//! per shot. A shot leaves its group on a state of its own at the op its
//! first hit lands in.
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
//! ([`ShotState::open`], then `collapse` and `settle`) remains where a
//! post-measurement state is consumed: mid-circuit measurements, resets,
//! observables, `run_single_trajectory`.

use crate::error::QclabError;
use crate::gates::Gate;
use crate::observable::Pauli;
use crate::program::{CompiledProgram, ProgramOp};
use crate::sim::bytecode::Instr;
use crate::sim::control::{stop_or_err, ControlTicker, ExecutionControl, StopCause, StopLatch};
use crate::sim::guard::ResourceLimits;
use crate::sim::kernel::{self, KernelConfig};
use crate::sim::prep::{marginal, tile_lut, SampledPrep};
use crate::sim::sampler::{render_outcomes, CdfTable};
use crate::sim::trajectory::{
    shot_rng, InjectedPauli, NormStats, TrajectoryConfig, TrajectoryResult, WatchdogConfig,
};
use crate::sim::walk::{Landing, NoisePlan, ShotDraws};
use crate::sim::{collapse, par};
use qclab_math::rng::Rng;
use qclab_math::scalar::C64;
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

/// Amplitudes per partial sum of the watchdog's [`norm`].
const NORM_PIECE: usize = 1 << 12;

/// The Euclidean norm of `state` as the watchdog measures it: a sum of
/// `|amp|²` per [`NORM_PIECE`] amplitudes in index order, the partial
/// sums added in piece order, so a state of at most one piece is summed
/// exactly as `CVec::norm` sums it. On `width` threads the team computes
/// the partials; the pieces are fixed, so the norm is one function at
/// every width. At width 1 the partials are added as they are made: a
/// small lane checks its norm once per shot, and a partials buffer there
/// cost a forked 3-qubit sample ≈ 7 % (EXPERIMENTS F22).
fn norm(state: &[C64], width: usize) -> f64 {
    let piece_sum = |piece: &[C64]| piece.iter().map(|z| z.norm_sqr()).sum::<f64>();
    if width == 1 {
        return state.chunks(NORM_PIECE).map(piece_sum).sum::<f64>().sqrt();
    }
    let mut partials = vec![0.0f64; state.len().div_ceil(NORM_PIECE)];
    par::for_each_chunk(width, &mut partials, 1, |i, partial| {
        partial[0] = piece_sum(&state[i * NORM_PIECE..state.len().min((i + 1) * NORM_PIECE)]);
    });
    partials.iter().sum::<f64>().sqrt()
}

/// The outcome probabilities `(p0, p1)` of a collapsing op, computed
/// once per state however many lanes draw against them.
#[derive(Clone, Copy)]
struct Probs(f64, f64);

impl Probs {
    /// The bit the uniform `r` picks. A degenerate outcome never
    /// collapses onto its zero-probability half, whatever `r`, and a ratio
    /// that is not a number picks 1.
    fn outcome(self, r: f64) -> usize {
        let Probs(p0, p1) = self;
        if p1 <= 0.0 {
            0
        } else if p0 <= 0.0 {
            1
        } else if r < p0 / (p0 + p1) {
            0
        } else {
            1
        }
    }

    /// The probability of outcome `bit`.
    fn of(self, bit: usize) -> f64 {
        if bit == 0 {
            self.0
        } else {
            self.1
        }
    }
}

/// State of one in-flight shot: the vector, its position in the
/// instruction stream, and the watchdog bookkeeping. A clone leaves the
/// scratch buffer behind: it holds no state.
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
    /// The amplitudes are still `|0…0⟩` as `prep::ground_state` wrote
    /// them: set there only, cleared by everything that writes
    /// amplitudes, carried by forks. A layout move on it adopts the map
    /// and moves nothing — the ground state is invariant under every
    /// qubit permutation, so its bits are the move's.
    pub(super) ground: bool,
}

impl Clone for ShotState {
    fn clone(&self) -> Self {
        self.with_state(self.state.clone())
    }
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
            ground: false,
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
        let width = par::width(self.kernel.parallel_at(self.n));
        let norm = norm(&self.state, width);
        let drift = (norm - 1.0).abs();
        self.stats.max_drift = self.stats.max_drift.max(drift);
        if drift > self.watchdog.tol && norm > 0.0 {
            self.ground = false;
            let inv = 1.0 / norm;
            par::for_each_chunk(width, &mut self.state.0, NORM_PIECE, |_, piece| {
                for z in piece {
                    *z *= inv;
                }
            });
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
            self.ground = false;
            kernel::apply_gate(&g, &mut self.state, self.n, &self.kernel);
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
                    None => kernel::apply_gate(g, &mut self.state, self.n, &self.kernel),
                    Some(map) => {
                        let g = g.relabeled(map);
                        kernel::apply_gate(&g, &mut self.state, self.n, &self.kernel)
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

    /// Rotates the qubit a collapsing `instr` reads — a measurement's, in
    /// its basis (the basis change is a physical single-qubit gate, so it
    /// targets the qubit's physical slot), or a reset's, in Z — into the
    /// computational basis, and returns the *logical* qubit with its
    /// outcome probabilities. Under a non-identity layout the collapse
    /// pair enumerates amplitudes in logical index order ([`collapse`]),
    /// so the probabilities — and therefore every drawn bit — are
    /// bit-identical to the unremapped engine.
    fn open(&mut self, instr: &Instr) -> (usize, Probs) {
        // the collapse that follows writes the amplitudes, on this state
        // or on the copies it hands out
        self.ground = false;
        let q = match instr {
            Instr::Measure(m) => {
                if let Some((vdg, _)) = m.basis().change_gates(self.physical(m.qubit())) {
                    kernel::apply_gate(&vdg, &mut self.state, self.n, &self.kernel);
                }
                m.qubit()
            }
            Instr::Reset(q) => *q,
            _ => unreachable!("only a measurement or a reset collapses"),
        };
        let map = self.map.as_deref();
        let (p0, p1) = collapse::measure_probabilities(&self.state, self.n, q, map);
        (q, Probs(p0, p1))
    }

    /// Collapses the opened qubit `q` onto `bit` in place: into the
    /// scratch buffer and swapped, one allocation per state at most.
    fn collapse(&mut self, q: usize, bit: usize, probs: Probs) {
        let (p, map) = (probs.of(bit), self.map.as_deref());
        collapse::collapse_into(&self.state, self.n, q, bit, p, map, &mut self.scratch);
        std::mem::swap(&mut self.state, &mut self.scratch);
    }

    /// A new state: this one with the opened qubit `q` collapsed onto
    /// `bit`, written from these amplitudes (the same arithmetic as
    /// [`collapse`](Self::collapse)), which stay as they are, into this
    /// state's scratch buffer — so a state that waits for another holds
    /// its amplitudes only.
    fn collapsed(&mut self, q: usize, bit: usize, probs: Probs) -> ShotState {
        let mut state = std::mem::replace(&mut self.scratch, CVec(Vec::new()));
        let (p, map) = (probs.of(bit), self.map.as_deref());
        collapse::collapse_into(&self.state, self.n, q, bit, p, map, &mut state);
        self.with_state(state)
    }

    /// A copy of this shot, written into this state's scratch buffer like
    /// [`collapsed`](Self::collapsed)'s.
    fn fork(&mut self) -> ShotState {
        let mut state = std::mem::replace(&mut self.scratch, CVec(Vec::new()));
        state.0.clone_from(&self.state.0);
        self.with_state(state)
    }

    /// The rest of a collapsing `instr` once it collapsed onto `bit`: a
    /// measurement rotates back out of its basis and records the bit, a
    /// reset that read 1 flips the qubit back to 0.
    fn settle(&mut self, instr: &Instr, bit: usize, record: &mut String) {
        match instr {
            Instr::Measure(m) => {
                if let Some((_, v)) = m.basis().change_gates(self.physical(m.qubit())) {
                    kernel::apply_gate(&v, &mut self.state, self.n, &self.kernel);
                }
                record.push(if bit == 0 { '0' } else { '1' });
            }
            Instr::Reset(q) if bit == 1 => {
                let flip = Gate::PauliX(self.physical(*q));
                kernel::apply_gate(&flip, &mut self.state, self.n, &self.kernel);
                self.bump_watchdog(1);
            }
            _ => {}
        }
    }

    /// Moves the cursor past a one-op instruction.
    fn passed(&mut self) {
        self.op += 1;
        self.pc += 1;
    }

    /// This shot's bookkeeping — cursor, watchdog, layout, hits — on the
    /// amplitudes `state`, with a scratch buffer of its own to come.
    fn with_state(&self, state: CVec) -> ShotState {
        ShotState {
            state,
            scratch: CVec(Vec::new()),
            n: self.n,
            kernel: self.kernel,
            watchdog: self.watchdog,
            stats: self.stats,
            gates_since_check: self.gates_since_check,
            injected: self.injected.clone(),
            map: self.map.clone(),
            pc: self.pc,
            op: self.op,
            ground: self.ground,
        }
    }

    /// The cumulative outcome table of `block` on this state — the one
    /// build behind every terminal draw, whether the state is the run's
    /// shared noiseless evolution or a diverged lane's own: the
    /// end-of-shot norm check, each measured qubit rotated into its
    /// basis, the joint marginal, prefix-summed in place. The state is
    /// consumed as a state (left rotated); its layout is the one the
    /// block reads through.
    pub(super) fn terminal_table(&mut self, block: &TerminalBlock) -> Result<CdfTable, QclabError> {
        self.rotate_terminal(block);
        CdfTable::new(marginal(&self.state, &block.measured, self.n, &block.lut))
    }

    /// The state a terminal block is drawn from, table or stream: the
    /// end-of-shot norm check, then each measured qubit rotated into its
    /// basis.
    pub(super) fn rotate_terminal(&mut self, block: &TerminalBlock) {
        debug_assert_eq!(self.map, block.layout);
        self.final_check();
        self.ground = false;
        for vdg in &block.rotations {
            kernel::apply_gate(vdg, &mut self.state, self.n, &self.kernel);
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
                self.ground = false;
                if !(struck && self.replay(program, draws)) {
                    kernel::apply_prepared(pre, &mut self.state, self.n, &self.kernel);
                }
                self.bump_watchdog(1);
            }
            Instr::Window { tiles, first } => {
                self.ground = false;
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
                // never consumes RNG draws — and on the ground state, or
                // as a relabel, moves nothing at all
                if !self.ground && perm.iter().enumerate().any(|(q, &p)| q != p) {
                    #[cfg(test)]
                    tests::MOVES.with(|m| m.set(m.get() + 1));
                    kernel::permute_state(
                        &mut self.state,
                        self.n,
                        perm,
                        self.kernel.parallel_at(self.n),
                    );
                }
                self.map.clone_from(map);
            }
            Instr::Measure(_) | Instr::Reset(_) => {
                let (q, probs) = self.open(instr);
                let bit = probs.outcome(draws.collapse());
                self.collapse(q, bit, probs);
                self.settle(instr, bit, record);
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

    /// [`advance`](Self::advance) over the deterministic prefix, evolved
    /// once for every shot of a run. It ends at the first measurement or
    /// reset at the latest and no lane has a hit in it, so there is
    /// nothing to draw and the record stays empty.
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
    /// [`Reference::NoSharing`](super::trajectory::Reference::NoSharing),
    /// which gives up the run-wide prefix and table only: within a batch
    /// a group still shares its state and its table (`shot_batch = 1` is
    /// the per-shot engine).
    pub(super) shared: Option<Arc<SampledPrep>>,
}

/// The measurements of a terminal block
/// ([`ShotPlan::terminal_measurements`](crate::program::ShotPlan)), as
/// the one draw reads them: in the identity layout after the locality
/// pass's restore, or — where the plan reads it in place
/// ([`ShotPlan::draw_in_place`](crate::program::ShotPlan)) — through
/// the layout before it, whose physical slots every field below names.
pub(super) struct TerminalBlock {
    /// Schedule index where the draw reads the state: the block's first
    /// op (the prefix length), or the restore it skips.
    pub(super) first: usize,
    /// The layout the state is read through (`None` = identity).
    layout: Option<Vec<usize>>,
    /// Measured qubits' slots in execution order (first = most
    /// significant outcome bit).
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
        let layout = plan
            .draw_in_place
            .as_ref()
            .map(|(_, layout)| layout.clone());
        let slot = |q: usize| layout.as_ref().map_or(q, |map| map[q]);
        let rotations = program.ops()[plan.prefix_ops..]
            .iter()
            .filter_map(|op| match op {
                ProgramOp::Measure(m) => {
                    m.basis().change_gates(slot(m.qubit())).map(|(vdg, _)| vdg)
                }
                _ => None,
            });
        let measured: Vec<usize> = plan.measured_qubits.iter().map(|&q| slot(q)).collect();
        TerminalBlock {
            first: plan.draw_ops(),
            rotations: rotations.collect(),
            lut: tile_lut(&measured, program.nb_qubits()),
            measured,
            layout,
        }
    }
}

/// What the lanes handed to `finish` together measured: the record of
/// their per-qubit collapses, which they share, or the outcome index of
/// each one's terminal draw, in lane order (measurement `j` is bit
/// `m−1−j`).
pub(super) enum Measured {
    Record(String),
    Outcomes(Vec<usize>),
}

/// One lane of a batch. A shot's hits are a function of its
/// `(seed, shot)` stream and the source schedule alone, never of
/// amplitudes — so they are all drawn, landed and sorted before any
/// state exists, and the op at which the lane leaves its group (the
/// earliest op a hit lands in) is known up front.
struct Lane {
    /// The lane's hits, addressed to the plan, and its stream.
    draws: LaneDraws,
    /// The lane's hits in stream order, for its result.
    injected: Vec<InjectedPauli>,
}

/// Takes shot `shot`'s draws. `collapses` says whether measurements
/// collapse one by one (each then owns a uniform of the stream) or end in
/// a terminal draw.
fn draw_lane(
    program: &CompiledProgram,
    noise: &NoisePlan,
    seed: u64,
    shot: u64,
    collapses: bool,
) -> Lane {
    let mut rng = shot_rng(seed, shot);
    let ShotDraws { hits, collapses } = noise.draw_shot(program, collapses, &mut rng);
    Lane {
        draws: LaneDraws::land(program, &hits, collapses, rng),
        injected: hits,
    }
}

/// A group of the walk: one state and the lanes whose history it holds —
/// the same ops, the same collapse outcomes, no hit yet — with the record
/// they share.
struct Group {
    state: ShotState,
    lanes: Vec<usize>,
    record: String,
}

/// One batch's group walk: what its groups and lanes read, and the
/// states it holds.
struct Walk<'a, F> {
    program: &'a CompiledProgram,
    stream: &'a [Instr],
    block: Option<&'a TerminalBlock>,
    /// Where a lane stops stepping: the terminal block, or the end.
    until: usize,
    limits: &'a ResourceLimits,
    /// Batches the fan-out may run at once, each holding what this one
    /// does.
    width: usize,
    lanes: Vec<Lane>,
    /// The draws of a group: it holds no hit and draws nothing itself.
    silent: LaneDraws,
    /// The groups' poll of the run's control; a lane on its own polls
    /// through a ticker of its own, as it would alone.
    ticker: ControlTicker<'a>,
    control: &'a ExecutionControl,
    finish: F,
    /// States the walk holds, and the most it has held at once.
    live: usize,
    peak: usize,
}

impl<F: FnMut(&[usize], Measured, Option<ShotState>)> Walk<'_, F> {
    /// Counts a state the walk has just made.
    fn hold(&mut self, state: ShotState) -> ShotState {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        state
    }

    /// Hands finished lanes, and the state they end on, to `finish`.
    fn hand(&mut self, lanes: &[usize], measured: Measured, state: ShotState) {
        (self.finish)(lanes, measured, Some(state));
        self.live -= 1;
    }

    /// Walks group `g` to its end. The group steps until the earliest op
    /// one of its lanes' hits lands in, where that lane leaves on a state
    /// of its own; at a measurement or reset each lane draws its own
    /// uniform against the group's `(p0, p1)`, and a side that not every
    /// lane took runs first as a group (or lane by lane) of its own.
    fn walk(&mut self, mut g: Group) -> Result<(), QclabError> {
        loop {
            let op = g.state.op;
            let end = op == self.until;
            // a lane with a hit here — at the end: in the terminal
            // block — goes on alone; the last to leave takes the state
            let leaves = |lane: &Lane| lane.draws.next().is_some_and(|at| end || at.op == op);
            if g.lanes.iter().any(|&j| leaves(&self.lanes[j])) {
                let (gone, stay): (Vec<usize>, Vec<usize>) =
                    g.lanes.iter().partition(|&&j| leaves(&self.lanes[j]));
                g.lanes = stay;
                for (k, &j) in gone.iter().enumerate() {
                    if g.lanes.is_empty() && k + 1 == gone.len() {
                        return self.lone(g.state, j, g.record);
                    }
                    let lane = self.hold(g.state.fork());
                    self.lone(lane, j, g.record.clone())?;
                }
            }
            if end {
                return self.end(g);
            }
            let instr = &self.stream[g.state.pc];
            if let Instr::Measure(_) | Instr::Reset(_) = instr {
                self.split(&mut g, instr)?;
                continue;
            }
            let lanes = &self.lanes;
            let next_hit = g.lanes.iter().map(|&j| lanes[j].draws.next_op()).min();
            let stop = next_hit.unwrap_or(usize::MAX).min(self.until);
            let (program, silent) = (self.program, &mut self.silent);
            let ops = g.state.step(program, instr, stop, silent, &mut g.record);
            self.ticker.tick_n(ops)?;
        }
    }

    /// The collapse at `g`'s cursor: every lane takes its own uniform, in
    /// lane order, and joins the side it picks. A side every lane took
    /// collapses in place. Otherwise the smaller side runs first, on a
    /// collapsed copy, and the larger goes on in place — at most
    /// `1 + ⌊log₂ lanes⌋` states alive. A state that waits gives its
    /// scratch buffer to the state it waits for, so the walk's `live`
    /// states hold `live + 1` vectors at most. A smaller side of two lanes
    /// or more runs as a group only if the limits admit what every batch
    /// the fan-out runs at once may then hold
    /// ([`ResourceLimits::check_branches`]); else lane by lane, one state
    /// beside the group's at a time: the group's amplitudes and the lane's
    /// two vectors.
    fn split(&mut self, g: &mut Group, instr: &Instr) -> Result<(), QclabError> {
        let (q, probs) = g.state.open(instr);
        let lanes = &mut self.lanes;
        let (zeros, ones): (Vec<usize>, Vec<usize>) = g
            .lanes
            .iter()
            .partition(|&&j| probs.outcome(lanes[j].draws.collapse()) == 0);
        let (bit, small, large) = if ones.len() < zeros.len() {
            (1, ones, zeros)
        } else {
            (0, zeros, ones)
        };
        if !small.is_empty() {
            // nesting keeps this group's state waiting beside the side's,
            // and a lane of the side may leave on one more with a scratch
            let vectors = self.width * (self.live + 3);
            let nest = small.len() > 1 && self.limits.check_branches(g.state.n, vectors).is_ok();
            let side = |s: &mut ShotState, record: &String| {
                let mut side = s.collapsed(q, bit, probs);
                let mut record = record.clone();
                side.settle(instr, bit, &mut record);
                side.passed();
                (side, record)
            };
            if nest {
                let (state, record) = side(&mut g.state, &g.record);
                let state = self.hold(state);
                self.walk(Group {
                    state,
                    lanes: small,
                    record,
                })?;
            } else {
                for j in small {
                    let (state, record) = side(&mut g.state, &g.record);
                    let lane = self.hold(state);
                    self.lone(lane, j, record)?;
                }
            }
        }
        g.lanes = large;
        g.state.collapse(q, 1 - bit, probs);
        g.state.settle(instr, 1 - bit, &mut g.record);
        g.state.passed();
        Ok(())
    }

    /// A group at the end of its walk: the end-of-shot check and its
    /// shared record, or one table of its terminal block that each lane
    /// draws from with its own stream.
    fn end(&mut self, mut g: Group) -> Result<(), QclabError> {
        let measured = match self.block {
            Some(block) => {
                let table = g.state.terminal_table(block)?;
                let lanes = &mut self.lanes;
                let draw = |&j: &usize| table.sample(&mut lanes[j].draws.rng);
                Measured::Outcomes(g.lanes.iter().map(draw).collect())
            }
            None => {
                g.state.final_check();
                Measured::Record(g.record)
            }
        };
        self.hand(&g.lanes, measured, g.state);
        Ok(())
    }

    /// Lane `j` on a state of its own, from where it left its group to
    /// the end of its shot.
    fn lone(
        &mut self,
        mut lane: ShotState,
        j: usize,
        mut record: String,
    ) -> Result<(), QclabError> {
        let Lane { draws, injected } = &mut self.lanes[j];
        lane.injected = std::mem::take(injected);
        let (program, stream) = (self.program, self.stream);
        lane.advance(
            program,
            stream,
            self.until,
            draws,
            &mut record,
            &mut self.control.ticker(),
        )?;
        let measured = match self.block {
            Some(block) => Measured::Outcomes(vec![lane.measure_terminal(block, draws)?]),
            None => {
                lane.final_check();
                Measured::Record(record)
            }
        };
        self.hand(&[j], measured, lane);
        Ok(())
    }
}

/// Drives `count` shots (`first..first + count`) through the bytecode as
/// a **group walk**: shots that share a history share one state. A group
/// is one state plus the lanes whose history it holds — the same ops, the
/// same collapse outcomes, no hit yet — and a batch starts as one group on
/// `reference`, the state the shots start from. A shot's noise walk
/// never consults the state, so where each lane's first hit lands is
/// known up front ([`draw_lane`]): the group evolves once as far as that
/// op, and the lane leaves there on a copy of its own (the last to leave
/// takes the state). At a collapsing measurement or reset the group
/// computes `(p0, p1)` once, each lane draws its own uniform, and each
/// side that some lane took goes on as a group on its own collapsed state
/// ([`Walk::split`]); the smaller side runs first, so a batch holds at
/// most `1 + ⌊log₂ count⌋` states. A waiting state keeps no scratch
/// buffer, and a split nests only where the limits admit what the batches
/// running at once may then hold; otherwise its smaller side runs lane by
/// lane, the three vectors a batch held before.
///
/// With a terminal `block`, a group ends in one table that each of its
/// lanes draws one outcome from, and a lane with a hit in the block in
/// its own draw ([`ShotState::measure_terminal`]); with a shared table as
/// well, a lane that never diverges holds no state at all and draws from
/// that table.
///
/// Every lane runs the per-instruction body ([`ShotState::step`]) and the
/// same collapse arithmetic over the same ops in the same order with its
/// own draws whatever the grouping, so every shot is bit-identical at any
/// batch width. Finished lanes are handed to `finish` as (lane indices,
/// what they measured, the state they end on — `None` for lanes that
/// drew from the shared table). Returns the most states the batch held at
/// once; a control stop returns the error, and the caller drops the whole
/// in-flight batch.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_shot_batch(
    program: &CompiledProgram,
    noise: &NoisePlan,
    block: Option<&TerminalBlock>,
    shared: Option<&SampledPrep>,
    reference: ShotState,
    config: &TrajectoryConfig,
    first: u64,
    count: usize,
    mut finish: impl FnMut(&[usize], Measured, Option<ShotState>),
) -> Result<usize, QclabError> {
    let bc = program.bytecode();
    // one set of draws per lane — no state, no kernels
    let seed = config.seed;
    let collapses = block.is_none();
    let mut lanes: Vec<Lane> = (0..count as u64)
        .map(|j| draw_lane(program, noise, seed, first + j, collapses))
        .collect();
    let mut walking: Vec<usize> = (0..count).collect();
    if let Some(table) = shared {
        // the lanes that never diverge need no state
        let quiet: Vec<usize>;
        (quiet, walking) = walking.iter().partition(|&&j| lanes[j].injected.is_empty());
        if !quiet.is_empty() {
            let draw = |&j: &usize| table.draw(&mut lanes[j].draws.rng);
            let outcomes = quiet.iter().map(draw).collect();
            finish(&quiet, Measured::Outcomes(outcomes), None);
        }
    }
    if walking.is_empty() {
        return Ok(0);
    }
    let mut walk = Walk {
        program,
        stream: &bc.stream,
        block,
        until: block.map_or(bc.ops, |b| b.first),
        limits: &config.limits,
        width: par::width(config.kernel.allow_parallel),
        lanes,
        silent: LaneDraws::silent(),
        ticker: config.control.ticker(),
        control: &config.control,
        finish,
        live: 1,
        peak: 1,
    };
    let root = Group {
        state: reference,
        lanes: walking,
        record: String::new(),
    };
    walk.walk(root)?;
    Ok(walk.peak)
}

/// Evolves the deterministic prefix (the first `prefix` ops — gates,
/// fences and layout permutations only, by construction of
/// [`crate::program::ShotPlan`]) once from `start`, a shot at op 0, on
/// the plan's cached stream with full watchdog bookkeeping. The
/// returned state carries the cursor, watchdog counters and layout
/// forked shots resume from.
pub(super) fn evolve_prefix(
    program: &CompiledProgram,
    prefix: usize,
    mut start: ShotState,
    config: &TrajectoryConfig,
) -> Result<ShotState, QclabError> {
    let bc = program.bytecode();
    start.advance_shared(program, &bc.stream, prefix, &mut config.control.ticker())?;
    Ok(start)
}

/// Shots per fan-out round: what bounds the memory of a run whatever its
/// shot count. A round's batch results are held until the round is
/// merged; 2¹⁸ shots is 4096 batches of the default width, so every run
/// the benchmark suite makes is a single round.
pub(crate) const ROUND_SHOTS: u64 = 1 << 18;

/// Fans `config.shots` shots out in batches of `batch`: `run(first,
/// count)` executes one batch — on up to `width` threads, which the
/// caller sizes to its work ([`ensemble_width`], or the frames' batch
/// count) — and `merge(count, result)` folds
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
    width: usize,
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

/// The width a state-vector ensemble fans its batches out on: the team's
/// only when the ensemble holds at least one parallel kernel pass of
/// work — `2^PARALLEL_THRESHOLD_QUBITS` amplitude-operations, the unit
/// at which the kernels themselves go parallel — and inline below it.
/// The work is judged from what the route knows before running: every
/// shot making, on its own `2^n` amplitudes, one pass per gate op after
/// the shared prefix, and a noisy lane one more for a terminal table of
/// its own. Collapses are left out: a noiseless walk takes each one once
/// per group of lanes, not per shot, and counting them put the
/// repetition code at 1 000 shots on the team, which made it slower
/// (EXPERIMENTS F26). A paper-sized request (teleportation or the
/// repetition code at 1 000 shots) is then under a quarter million
/// amplitude-operations, which one core finishes before a worker would
/// wake.
fn ensemble_width(
    program: &CompiledProgram,
    prog: &ShotProgram,
    config: &TrajectoryConfig,
) -> usize {
    let until = prog
        .terminal
        .as_ref()
        .map_or(program.ops().len(), |b| b.first);
    let gates = program.ops()[prog.start.op..until]
        .iter()
        .filter(|op| matches!(op, ProgramOp::Gate(_)))
        .count();
    let own_table = prog.terminal.is_some() && !config.noise.is_noiseless();
    let passes = (gates + usize::from(own_table)) as u128;
    let work = (u128::from(config.shots) * passes) << program.nb_qubits();
    par::width(config.kernel.allow_parallel && work >= 1 << kernel::PARALLEL_THRESHOLD_QUBITS)
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
        // a state handed over with several lanes is each one's: its
        // stats and values count once per lane
        let finish = |lanes: &[usize], measured: Measured, own: Option<ShotState>| {
            let members = lanes.len() as u64;
            match measured {
                Measured::Outcomes(ks) => {
                    for k in ks {
                        *tally.outcomes.entry(k).or_insert(0) += 1;
                    }
                }
                Measured::Record(r) => *tally.records.entry(r).or_insert(0) += members,
            }
            let Some(s) = own else {
                tally.norm.merge(&shared_norm.times(members));
                return;
            };
            tally.injected += s.injected.len() as u64 * members;
            tally.norm.merge(&s.stats.times(members));
            if observables > 0 {
                let values: Vec<f64> = config
                    .observables
                    .iter()
                    .map(|o| o.expectation(&s.state))
                    .collect();
                for &lane in lanes {
                    tally.expectations[lane * observables..][..observables]
                        .copy_from_slice(&values);
                }
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
    let width = ensemble_width(program, prog, config);
    let stopped = fan_out(config, width, batch, run_batch, |count, done: Tally| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitItem, QCircuit};
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use crate::program::PlanOptions;
    use crate::sim::prep;
    use crate::sim::route::route;
    use crate::sim::trajectory::{run_trajectories, run_trajectories_from, NoiseSpec};
    use crate::sim::trajectory::{PauliChannel, Reference, TrajectoryResult};
    use std::cell::Cell;

    thread_local! {
        /// Layout moves this thread's shots made ([`kernel::permute_state`]
        /// calls from [`ShotState::step`]).
        pub(super) static MOVES: Cell<usize> = const { Cell::new(0) };
    }

    /// `f`'s result and the layout moves it made on this thread.
    fn moves<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = MOVES.with(Cell::get);
        let out = f();
        (out, MOVES.with(Cell::get) - before)
    }

    #[test]
    fn the_watchdog_norm_is_one_function_at_every_width() {
        let mut rng = Rng::seed_from_u64(4);
        // one piece and many, at the width-1 fold and on the team
        for n in [1usize, 7, 12, 13, 15, 19] {
            let state: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.f64() - 0.5, rng.f64() - 0.5))
                .collect();
            let serial = norm(&state, 1);
            if n <= 12 {
                assert_eq!(serial.to_bits(), CVec(state.clone()).norm().to_bits());
            }
            for width in [2, 4] {
                assert_eq!(norm(&state, width).to_bits(), serial.to_bits(), "n={n}");
            }
        }
    }

    /// The paper's teleportation (Sec. 5.1): the message is un-prepared
    /// after the correction, so only the two Bell bits are random.
    fn teleport() -> QCircuit {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(SGate::new(0));
        c.push_back(Hadamard::new(1));
        c.push_back(CNOT::new(1, 2));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        c.push_back(CNOT::new(1, 2));
        c.push_back(CZ::new(0, 2));
        c.push_back(SdgGate::new(2));
        c.push_back(Hadamard::new(2));
        c.push_back(Measurement::z(2));
        c
    }

    /// The paper's distance-3 repetition code (Sec. 5.4): the syndrome
    /// and the corrected data are certain.
    fn qec3() -> QCircuit {
        let mut c = QCircuit::new(5);
        c.push_back(PauliX::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(CNOT::new(0, 2));
        c.push_back(PauliX::new(1));
        for (a, b) in [(0, 3), (1, 3), (0, 4), (2, 4)] {
            c.push_back(CNOT::new(a, b));
        }
        c.push_back(Measurement::z(3));
        c.push_back(Measurement::z(4));
        c.push_back(PauliX::new(3));
        c.push_back(Toffoli::new(3, 4, 2));
        c.push_back(PauliX::new(3));
        c.push_back(PauliX::new(4));
        c.push_back(Toffoli::new(3, 4, 1));
        c.push_back(PauliX::new(4));
        c.push_back(Toffoli::new(3, 4, 0));
        for q in 0..3 {
            c.push_back(Measurement::z(q));
        }
        c
    }

    /// `bits` fair coins, each measured mid-circuit and then flipped back.
    fn coins(n: usize, bits: usize) -> QCircuit {
        let mut c = QCircuit::new(n);
        for q in 0..bits {
            c.push_back(Hadamard::new(q));
        }
        for q in 0..bits {
            c.push_back(Measurement::z(q));
            c.push_back(PauliX::new(q));
        }
        c
    }

    /// One batch of `count` shots of `c` through the product route's
    /// preparation: the states handed to `finish`, the records, and the
    /// most states the batch held at once.
    fn one_batch(
        c: &QCircuit,
        config: &TrajectoryConfig,
        count: usize,
    ) -> (usize, Vec<String>, usize) {
        let route = route(c, config, None).unwrap();
        let (prepared, _) = prep::prepare(&route, None, config).unwrap();
        let prep::Prepared::Shots(prog) = prepared else {
            panic!("{} runs shot by shot", route.path);
        };
        let (mut states, mut records) = (0, Vec::new());
        let peak = run_shot_batch(
            &route.program,
            &prog.noise,
            prog.terminal.as_ref(),
            prog.shared.as_deref(),
            prog.start.clone(),
            config,
            0,
            count,
            |lanes, measured, own| {
                states += usize::from(own.is_some());
                if let Measured::Record(r) = measured {
                    records.extend(lanes.iter().map(|_| r.clone()));
                }
            },
        )
        .unwrap();
        records.sort();
        (states, records, peak)
    }

    #[test]
    fn shots_with_one_measurement_history_share_one_state() {
        let config = TrajectoryConfig::default();
        // one state per Bell outcome, and every one of them drawn
        let (states, records, _) = one_batch(&teleport(), &config, 64);
        assert_eq!(states, 4);
        assert_eq!(records.len(), 64);
        let mut bell: Vec<&str> = records.iter().map(|r| &r[..2]).collect();
        bell.dedup();
        assert_eq!(bell, ["00", "01", "10", "11"]);
        assert!(records.iter().all(|r| r.ends_with('0')));
        // a certain syndrome never splits the batch
        let (states, records, peak) = one_batch(&qec3(), &config, 64);
        assert_eq!((states, peak), (1, 1));
        assert!(records.iter().all(|r| r == "10111"), "{records:?}");
    }

    #[test]
    fn a_batch_holds_at_most_one_state_per_halving_and_two_when_refused() {
        let c = coins(8, 6);
        let config = TrajectoryConfig::default();
        let (states, records, peak) = one_batch(&c, &config, 64);
        // 64 lanes over 2⁶ histories: the smaller side first nests at
        // most ⌊log₂ 64⌋ deep
        assert!((3..=1 + 6).contains(&peak), "peak {peak}");
        assert!(states > 16, "{states} histories");
        // the same run where the limits admit two states but not three:
        // each split's smaller side goes lane by lane, the bits unchanged
        let two = ResourceLimits {
            max_state_bytes: 2 * ResourceLimits::state_bytes(8).unwrap(),
            ..ResourceLimits::default()
        };
        let capped = TrajectoryConfig {
            limits: two,
            ..TrajectoryConfig::default()
        };
        let (_, capped_records, capped_peak) = one_batch(&c, &capped, 64);
        assert_eq!(capped_peak, 2);
        assert_eq!(capped_records, records);
    }

    /// The `n`-qubit QFT of the paper's Sec. 5 benchmark (Hadamards,
    /// cascading controlled phases, the bit-reversal swaps), every qubit
    /// measured when `measured`.
    fn qft(n: usize, measured: bool) -> QCircuit {
        let mut c = QCircuit::new(n);
        for q in 0..n {
            c.push_back(Hadamard::new(q));
            for k in q + 1..n {
                let theta = std::f64::consts::PI / (1u64 << (k - q)) as f64;
                c.push_back(CPhase::new(k, q, theta));
            }
        }
        for q in 0..n / 2 {
            c.push_back(SwapGate::new(q, n - 1 - q));
        }
        if measured {
            for q in 0..n {
                c.push_back(Measurement::z(q));
            }
        }
        c
    }

    /// `start`'s evolution through the first `prefix` ops of `program`,
    /// and the layout moves it made.
    fn evolved(program: &CompiledProgram, prefix: usize, start: ShotState) -> (ShotState, usize) {
        let config = TrajectoryConfig::default();
        moves(|| evolve_prefix(program, prefix, start, &config).unwrap())
    }

    fn bits(s: &ShotState) -> Vec<(u64, u64)> {
        s.state
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn a_ground_state_adopts_its_layout_and_moves_nothing() {
        // QFT-16 from |0…0⟩: the locality pass opens with a layout move,
        // relabels the eight bit-reversal swaps and restores the identity
        // before the terminal block
        let n = 16;
        let program = crate::program::compile(&qft(n, true), &PlanOptions::default());
        let prefix = program.shot_plan().prefix_ops;
        let (relabels, permutes): (Vec<_>, Vec<_>) = program.ops()[..prefix]
            .iter()
            .filter(|op| matches!(op, ProgramOp::Permute { .. }))
            .partition(|op| op.is_relabel());
        assert_eq!((relabels.len(), permutes.len()), (8, 2));
        assert!(matches!(program.ops()[0], ProgramOp::Permute { .. }));
        let (kernel, watchdog) = (KernelConfig::default(), WatchdogConfig::default());
        let (ground, free) = evolved(&program, prefix, prep::ground_state(n, 1, kernel, watchdog));
        let explicit = ShotState::new(CVec::basis_state(1 << n, 0), n, kernel, watchdog);
        let (moved, paid) = evolved(&program, prefix, explicit);
        // one `permute_state` call, not two — and the parent's bits
        assert_eq!((free, paid), (1, 2));
        assert!(!ground.ground);
        assert_eq!(bits(&ground), bits(&moved));
        assert_eq!(ground.map, moved.map);
        assert_eq!(ground.stats, moved.stats);
        // the opening move alone: the map adopted, the amplitudes as the
        // move leaves them
        let (one, free) = evolved(&program, 1, prep::ground_state(n, 1, kernel, watchdog));
        let explicit = ShotState::new(CVec::basis_state(1 << n, 0), n, kernel, watchdog);
        let (other, paid) = evolved(&program, 1, explicit);
        assert_eq!((free, paid), (0, 1));
        assert!(one.ground && one.map.is_some());
        assert_eq!((bits(&one), &one.map), (bits(&other), &other.map));
    }

    #[test]
    fn a_run_from_an_explicit_initial_state_still_moves_its_amplitudes() {
        let n = 16;
        let c = qft(n, false);
        let remapped = crate::program::compile(&c, &PlanOptions::default());
        let plain = crate::program::compile(
            &c,
            &PlanOptions {
                remap: false,
                ..PlanOptions::default()
            },
        );
        let mut rng = Rng::seed_from_u64(48);
        let initial = CVec(
            (0..1usize << n)
                .map(|_| C64::new(rng.f64() - 0.5, rng.f64() - 0.5))
                .collect(),
        )
        .normalized();
        let (kernel, watchdog) = (KernelConfig::default(), WatchdogConfig::default());
        let start = || ShotState::new(initial.clone(), n, kernel, watchdog);
        let ops = remapped.ops().len();
        let (s, paid) = evolved(&remapped, ops, start());
        assert_eq!(paid, 2);
        // the locality pass is pure data movement: the unmapped plan's bits
        let (reference, none) = evolved(&plain, plain.ops().len(), start());
        assert_eq!(none, 0);
        assert_eq!(s.map, None);
        assert_eq!(bits(&s), bits(&reference));
    }

    #[test]
    fn noisy_lanes_from_the_ground_state_are_the_moved_lanes() {
        // gate and idle noise: every lane starts at op 0 of a remapped
        // 14-qubit plan, which opens with a layout move
        let n = 14;
        let c = qft(n, true);
        let noise = NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.002)),
            idle: Some(PauliChannel::BitFlip(0.0005)),
            ..NoiseSpec::default()
        };
        let config = TrajectoryConfig {
            seed: 14,
            shots: 24,
            noise,
            ..TrajectoryConfig::default()
        };
        let routed = route(&c, &config, None).unwrap();
        assert_eq!(routed.path, crate::sim::trajectory::ShotPath::PerShot);
        assert!(matches!(routed.program.ops()[0], ProgramOp::Permute { .. }));
        let result = |r: &TrajectoryResult| {
            format!(
                "{} {:?} {:?}",
                r.injected_errors(),
                r.norm_stats(),
                r.counts()
            )
        };
        let (grouped, free) = moves(|| run_trajectories(&c, &config).unwrap());
        assert!(grouped.injected_errors() > 0);
        let no_sharing = TrajectoryConfig {
            reference: Reference::NoSharing,
            ..config.clone()
        };
        let alone = run_trajectories(&c, &no_sharing).unwrap();
        assert_eq!(result(&alone), result(&grouped));
        // the same lanes from an explicit |0…0⟩, which pay every move
        let zero = CVec::basis_state(1 << n, 0);
        let (moved, paid) = moves(|| run_trajectories_from(&c, &zero, &config).unwrap());
        assert_eq!(result(&moved), result(&grouped));
        assert!(
            free < paid,
            "{free} moves from the ground state, {paid} paid"
        );
    }

    /// The passes that move amplitudes — SWAP gates and layout moves —
    /// that `config`'s run of `c` makes after its ground state, with its
    /// plan.
    fn moving_passes(c: &QCircuit, config: &TrajectoryConfig) -> (TrajectoryResult, usize) {
        let program = crate::program::compile(c, &PlanOptions::from(&config.kernel));
        let swaps = program.ops()[..program.shot_plan().draw_ops()]
            .iter()
            .filter(|op| matches!(op, ProgramOp::Gate(Gate::Swap(..))))
            .count();
        let (r, moved) = moves(|| run_trajectories(c, config).unwrap());
        (r, swaps + moved)
    }

    #[test]
    fn a_one_off_qft16_sample_moves_no_amplitude() {
        // the opening move is free on |0…0⟩, the bit-reversal swaps are
        // relabels, and the draw reads them in place: none of the nine
        // passes the swaps and the restore made before
        let c = qft(16, true);
        let config = TrajectoryConfig {
            shots: 1000,
            ..TrajectoryConfig::default()
        };
        let (r, passes) = moving_passes(&c, &config);
        assert_eq!(passes, 0);
        let plain = TrajectoryConfig {
            kernel: KernelConfig {
                remap: false,
                ..config.kernel
            },
            ..config.clone()
        };
        let (reference, paid) = moving_passes(&c, &plain);
        assert_eq!(paid, 8);
        assert_eq!(r.counts(), reference.counts());
    }

    #[test]
    fn a_wide_swap_ended_draw_still_restores() {
        // at the parallel threshold and above a draw scattered over the
        // layout costs more than the restore, so the plan's restore runs
        let n = 20;
        let mut c = QCircuit::new(n);
        for q in 0..n {
            c.push_back(Hadamard::new(q));
        }
        c.push_back(CNOT::new(0, 1));
        // a fence keeps fusion from folding the swaps into the layer
        c.push_back(CircuitItem::Barrier((0..n).collect()));
        for q in 0..3 {
            c.push_back(SwapGate::new(q, n - 1 - q));
        }
        for q in 0..n {
            c.push_back(Measurement::z(q));
        }
        let config = TrajectoryConfig {
            shots: 100,
            ..TrajectoryConfig::default()
        };
        let program = crate::program::compile(&c, &PlanOptions::default());
        assert_eq!(program.stats().remap_relabels, 3);
        assert_eq!(program.shot_plan().draw_in_place, None);
        let (r, passes) = moving_passes(&c, &config);
        assert_eq!(passes, 1);
        let plain = TrajectoryConfig {
            kernel: KernelConfig {
                remap: false,
                ..config.kernel
            },
            ..config.clone()
        };
        assert_eq!(r.counts(), run_trajectories(&c, &plain).unwrap().counts());
    }
}
