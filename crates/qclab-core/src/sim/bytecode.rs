//! Bytecode execution engine: [`crate::program::CompiledProgram`]
//! lowered one step further into a flat, cache-resident instruction
//! buffer run by a tight dispatch loop.
//!
//! The interpreter in [`super::Simulation`]'s `simulate_with` walks the
//! `ProgramOp` schedule and re-derives, for every op of every run (and
//! every shot of a trajectory ensemble): the control masks, the dense
//! target matrix (trig for rotation gates included), the extracted
//! diagonal, the k-qubit kernel's sorted shifts and scatter-offset
//! table, and the cache-blocked sweep's tile lowering. Bytecode
//! compilation pays all of that once per *plan*: each instruction is an
//! opcode plus fully-resolved operands
//! ([`kernel::PreparedOp`]/[`kernel::TilePre`] — matrix slot, stride,
//! masks, offset table), stored in the plan itself, which lives in the
//! fingerprint-keyed plan cache. A cache hit therefore skips both
//! lowering *and* preparation; the dispatch loop is a single `match` on
//! the opcode per instruction.
//!
//! Bit-identity is by construction, not by accident: both paths execute
//! [`kernel::apply_prepared`] on operands produced by the same
//! [`kernel::prepare_gate`] classification, in the same op order, with
//! the same runtime flags — the bytecode path merely moves the *prepare*
//! half out of the hot loop. The same structure (kernel-per-opcode over
//! a flat instruction stream) is what a GPU/offload backend dispatches,
//! which is why this layer is the stepping stone to one.

use super::control::ControlTicker;
use super::kernel::{self, KernelConfig, PreparedOp, TilePre};
use super::{measure_branches, reset_branches, Branch, SimOptions};
use crate::error::QclabError;
use crate::program::{CompiledProgram, ProgramOp};

/// One instruction of the dense simulate stream. Gate runs that the
/// interpreter would execute as a cache-blocked sweep are collapsed into
/// a single [`Window`](Instr::Window) at compile time (the grouping
/// rule is identical, so the executed kernel sequence is too);
/// measurements, resets and permutations carry the index of their
/// source op — the executor reads the operand (measurement spec,
/// permutation tables) from the plan it already holds.
pub(crate) enum Instr {
    /// Apply one pre-lowered gate to the full register.
    Gate(PreparedOp),
    /// Cache-blocked sweep over `count` consecutive tile-local gates.
    Window { tiles: Vec<TilePre>, count: usize },
    /// Scheduling wall — nothing to execute, one ticker step.
    Fence,
    /// Physically permute the amplitudes (`ops[op]` holds the tables).
    Permute { op: usize },
    /// Branch on a measurement (`ops[op]` holds the spec).
    Measure { op: usize },
    /// Reset a qubit (`ops[op]` holds it).
    Reset { op: usize },
}

/// The per-op overlay the shot-batched trajectory executor walks in
/// lockstep with the op schedule (`flat[i]` pairs with `ops[i]`): gates
/// carry their prepared form plus the touched-qubit list the noise
/// model re-derived per shot; everything else executes off the op
/// itself.
pub(crate) enum FlatInstr {
    /// A gate, pre-lowered, with `gate.qubits()` precomputed for the
    /// after-gate/idle noise sites.
    Gate {
        pre: PreparedOp,
        touched: Vec<usize>,
    },
    /// Measure / reset / fence / permute — the executor reads the
    /// paired `ProgramOp` directly.
    Other,
}

/// A compiled program's instruction buffer: the windowed stream the
/// dense branching executor and the sampled paths' one-time prefix
/// dispatch on, plus the flat per-op overlay the shot-batched trajectory
/// engine walks. Compiled lazily by [`CompiledProgram::bytecode`] and
/// cached on the plan; the overlay is lowered on its own first use
/// ([`flat`](Bytecode::flat)), so a run that only streams — every cold
/// one-off through the alias path — prepares each gate once, as the
/// interpreter would.
pub struct Bytecode {
    n: usize,
    pub(crate) stream: Vec<Instr>,
    flat: std::sync::OnceLock<Vec<FlatInstr>>,
}

impl std::fmt::Debug for Bytecode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bytecode")
            .field("n", &self.n)
            .field("stream_len", &self.stream.len())
            .field("flat_len", &self.flat.get().map(Vec::len))
            .finish()
    }
}

impl Bytecode {
    /// Lowers a compiled program into bytecode. Preparation classifies
    /// with every kernel specialization enabled — the execution paths
    /// are gated on the matching [`KernelConfig`] flags (see
    /// [`eligible`]), so ablation runs with a specialization disabled
    /// fall back to the interpreter instead of executing mismatched
    /// operands.
    pub(crate) fn compile(program: &CompiledProgram) -> Bytecode {
        let n = program.nb_qubits();
        let ops = program.ops();
        let mut stream = Vec::with_capacity(ops.len());

        // windowed stream: replicate the interpreter's grouping rule —
        // maximal runs of >= 2 consecutive sweepable gates become one
        // Window; everything else stays a single instruction
        let mut i = 0;
        while i < ops.len() {
            match &ops[i] {
                ProgramOp::Gate(g) => {
                    let mut j = i;
                    while j < ops.len()
                        && matches!(&ops[j], ProgramOp::Gate(g) if kernel::sweepable(g, n))
                    {
                        j += 1;
                    }
                    if j - i >= 2 {
                        let tiles: Vec<TilePre> = ops[i..j]
                            .iter()
                            .map(|op| match op {
                                ProgramOp::Gate(g) => kernel::prepare_tile(g, n, true, true),
                                _ => unreachable!(),
                            })
                            .collect();
                        stream.push(Instr::Window {
                            tiles,
                            count: j - i,
                        });
                        i = j;
                        continue;
                    }
                    stream.push(Instr::Gate(kernel::prepare_gate(g, n, true, true)));
                    i += 1;
                }
                ProgramOp::Fence(_) => {
                    stream.push(Instr::Fence);
                    i += 1;
                }
                ProgramOp::Permute { .. } => {
                    stream.push(Instr::Permute { op: i });
                    i += 1;
                }
                ProgramOp::Measure(_) => {
                    stream.push(Instr::Measure { op: i });
                    i += 1;
                }
                ProgramOp::Reset(_) => {
                    stream.push(Instr::Reset { op: i });
                    i += 1;
                }
            }
        }
        Bytecode {
            n,
            stream,
            flat: std::sync::OnceLock::new(),
        }
    }

    /// The per-op overlay of `program` — the plan this bytecode was
    /// compiled from — one entry per op, in lockstep with `ops()`.
    pub(crate) fn flat(&self, program: &CompiledProgram) -> &[FlatInstr] {
        debug_assert_eq!(program.nb_qubits(), self.n);
        self.flat.get_or_init(|| {
            program
                .ops()
                .iter()
                .map(|op| match op {
                    ProgramOp::Gate(g) => FlatInstr::Gate {
                        pre: kernel::prepare_gate(g, self.n, true, true),
                        touched: g.qubits(),
                    },
                    _ => FlatInstr::Other,
                })
                .collect()
        })
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

/// Whether a kernel configuration may execute through the bytecode
/// path: the stream's operands were classified with the diagonal and
/// swap specializations on, so switching either off (the F4 ablations)
/// — or `bytecode` itself (`--no-bytecode`) — routes through the
/// interpreter instead.
pub(crate) fn eligible(cfg: &KernelConfig) -> bool {
    cfg.bytecode && cfg.use_diagonal_kernel && cfg.use_swap_kernel
}

/// The dense branching executor's dispatch loop: drives `branches`
/// through the compiled stream exactly as `simulate_with`'s interpreter
/// walk would — same kernels, same tick cadence (one per instruction,
/// `count` per window), same measurement branching — with all per-op
/// derivation already done.
pub(crate) fn execute_dense(
    program: &CompiledProgram,
    bc: &Bytecode,
    branches: &mut Vec<Branch>,
    opts: &SimOptions,
    ticker: &mut ControlTicker<'_>,
) -> Result<(), QclabError> {
    let n = bc.n;
    let ops = program.ops();
    // logical→physical layout of the amplitudes; `None` = identity
    let mut map: Option<Vec<usize>> = None;
    for instr in &bc.stream {
        match instr {
            Instr::Gate(pre) => {
                for b in branches.iter_mut() {
                    kernel::apply_prepared(pre, &mut b.state, n, &opts.kernel);
                }
                ticker.tick()?;
            }
            Instr::Window { tiles, count } => {
                for b in branches.iter_mut() {
                    kernel::apply_window_pre(&mut b.state, n, tiles, &opts.kernel);
                }
                ticker.tick_n(*count)?;
            }
            Instr::Fence => {
                ticker.tick()?;
            }
            Instr::Permute { op } => {
                let ProgramOp::Permute { perm, map: new_map } = &ops[*op] else {
                    unreachable!()
                };
                let parallel = opts.kernel.allow_parallel && n >= kernel::PARALLEL_THRESHOLD_QUBITS;
                for b in branches.iter_mut() {
                    kernel::permute_state(&mut b.state, n, perm, parallel);
                }
                map = if new_map.iter().enumerate().all(|(q, &p)| q == p) {
                    None
                } else {
                    Some(new_map.clone())
                };
                ticker.tick()?;
            }
            Instr::Measure { op } => {
                let ProgramOp::Measure(m) = &ops[*op] else {
                    unreachable!()
                };
                *branches = measure_branches(branches, m, opts, n, map.as_deref());
                ticker.tick()?;
            }
            Instr::Reset { op } => {
                let ProgramOp::Reset(q) = &ops[*op] else {
                    unreachable!()
                };
                *branches = reset_branches(branches, *q, opts, n, map.as_deref());
                ticker.tick()?;
            }
        }
    }
    Ok(())
}
