//! Bytecode: [`crate::program::CompiledProgram`] lowered one step
//! further into a flat, cache-resident instruction stream — the one
//! executable form of the dense state-vector engine.
//!
//! Lowering pays, once per *plan*, everything a gate application would
//! otherwise re-derive on every run and every shot: the control masks,
//! the dense target matrix (trig for rotation gates included), the
//! extracted diagonal, the k-qubit kernel's sorted shifts and
//! scatter-offset table, and the cache-blocked sweep's tile lowering.
//! Each instruction is
//! an opcode plus fully-resolved operands
//! (the kernel's `PreparedOp`/`TilePre` — matrix slot, stride,
//! masks, offset table), stored in the plan itself, which lives in the
//! fingerprint-keyed plan cache. A cache hit therefore skips both
//! lowering *and* preparation.
//!
//! The stream has exactly two consumers, each a single `match` on the
//! opcode per instruction: `execute_dense` below (the branching
//! `simulate`) and `ShotState::step` in [`super::trajectory`] (every
//! sampled shot: one-time prefix, batch reference pass, lane suffix).
//! The same structure — kernel-per-opcode over a flat instruction
//! stream — is what a GPU/offload backend dispatches, which is why this
//! layer is the stepping stone to one.

use super::control::ControlTicker;
use super::kernel::{self, PreparedOp, TilePre};
use super::{split_branches, Branch, BranchState, SimOptions};
use crate::error::QclabError;
use crate::measurement::Measurement;
use crate::program::{CompiledProgram, ProgramOp};

/// One instruction of the dense stream. Instructions cover the op
/// schedule in order — a window covers `tiles.len()` consecutive ops,
/// everything else exactly one — so a consumer that counts ops as it
/// goes always knows the op it stands at — which is where a shot's noise
/// hits are addressed ([`crate::sim::walk::Landings`]).
pub(crate) enum Instr {
    /// Apply one pre-lowered gate to the full register.
    Gate(PreparedOp),
    /// Cache-blocked sweep over consecutive tile-local gates (maximal
    /// runs of two or more [`kernel::sweepable`] gates). Any sub-range
    /// of `tiles` is itself a valid sweep, bit-identical to applying
    /// its gates one by one.
    Window {
        tiles: Vec<TilePre>,
        /// Schedule index of `tiles[0]`.
        first: usize,
    },
    /// Scheduling wall — nothing to execute.
    Fence,
    /// Physically permute the amplitudes (bit at qubit `i` moves to
    /// qubit `perm[i]`) and adopt `map` as the logical→physical layout
    /// (`None` = identity).
    Permute {
        perm: Vec<usize>,
        map: Option<Vec<usize>>,
    },
    /// Measure a qubit in its basis.
    Measure(Measurement),
    /// Reset a qubit to `|0⟩`.
    Reset(usize),
}

/// A compiled program's instruction stream. Compiled lazily by
/// [`CompiledProgram::bytecode`] and cached on the plan.
pub struct Bytecode {
    n: usize,
    /// Ops of the schedule the stream covers.
    pub(crate) ops: usize,
    pub(crate) stream: Vec<Instr>,
}

impl std::fmt::Debug for Bytecode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bytecode")
            .field("n", &self.n)
            .field("ops", &self.ops)
            .field("stream_len", &self.stream.len())
            .finish()
    }
}

impl Bytecode {
    /// Lowers a compiled program into bytecode.
    pub(crate) fn compile(program: &CompiledProgram) -> Bytecode {
        let n = program.nb_qubits();
        let ops = program.ops();
        let mut stream = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let mut next = i + 1;
            stream.push(match &ops[i] {
                ProgramOp::Gate(g) => {
                    // a maximal run of two or more sweepable gates is one window
                    let run = ops[i..]
                        .iter()
                        .take_while(
                            |op| matches!(op, ProgramOp::Gate(g) if kernel::sweepable(g, n)),
                        )
                        .count();
                    if run >= 2 {
                        next = i + run;
                        let mut tiles = Vec::with_capacity(run);
                        for op in &ops[i..next] {
                            if let ProgramOp::Gate(g) = op {
                                tiles.push(kernel::prepare_tile(g, n));
                            }
                        }
                        Instr::Window { tiles, first: i }
                    } else {
                        Instr::Gate(kernel::prepare_gate(g, n))
                    }
                }
                ProgramOp::Fence(_) => Instr::Fence,
                ProgramOp::Permute { perm, map } => Instr::Permute {
                    perm: perm.clone(),
                    map: (!map.iter().enumerate().all(|(q, &p)| q == p)).then(|| map.clone()),
                },
                ProgramOp::Measure(m) => Instr::Measure(m.clone()),
                ProgramOp::Reset(q) => Instr::Reset(*q),
            });
            i = next;
        }
        Bytecode {
            n,
            ops: ops.len(),
            stream,
        }
    }

    /// Register size the bytecode was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of instructions in the dense dispatch stream (windows
    /// count as one).
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }
}

/// The dense branching executor's dispatch loop: drives `branches`
/// through the compiled stream — one control tick per op (a window
/// ticks its gate count at once), measurements and resets branching.
pub(crate) fn execute_dense(
    bc: &Bytecode,
    branches: &mut Vec<Branch>,
    opts: &SimOptions,
    ticker: &mut ControlTicker<'_>,
) -> Result<(), QclabError> {
    let n = bc.n;
    // logical→physical layout of the amplitudes; `None` = identity
    let mut map: Option<&[usize]> = None;
    for instr in &bc.stream {
        let mut ops = 1;
        match instr {
            Instr::Gate(pre) => {
                for b in branches.iter_mut() {
                    kernel::apply_prepared(pre, &mut b.state, n, &opts.kernel);
                }
            }
            Instr::Window { tiles, .. } => {
                for b in branches.iter_mut() {
                    kernel::apply_window_pre(&mut b.state, n, tiles, &opts.kernel);
                }
                ops = tiles.len();
            }
            Instr::Fence => {}
            Instr::Permute { perm, map: new_map } => {
                for b in branches.iter_mut() {
                    b.state.permute(perm, n, &opts.kernel);
                }
                map = new_map.as_deref();
            }
            Instr::Measure(m) => {
                let old = std::mem::take(branches);
                *branches =
                    split_branches(old, m.qubit(), Some(m), &opts.kernel, &opts.limits, n, map)?;
            }
            Instr::Reset(q) => {
                let old = std::mem::take(branches);
                *branches = split_branches(old, *q, None, &opts.kernel, &opts.limits, n, map)?;
            }
        }
        ticker.tick_n(ops)?;
    }
    Ok(())
}
