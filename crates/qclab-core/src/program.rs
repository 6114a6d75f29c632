//! The compile/execute split: a shared lowered-program IR.
//!
//! Every backend in the workspace walks the same circuit semantics the
//! paper describes in Sec. 3 — gates evolve the state, measurements
//! branch or sample, resets re-initialize — yet historically each
//! executor re-implemented the `CircuitItem` traversal (sub-circuit
//! inlining, qubit-offset shifting, fusion flushing). This module is the
//! single lowering pipeline that replaces those duplicate walkers,
//! following the representation/execution separation of QCLAB++ and the
//! compile-once/execute-many architecture of the MQT tools:
//!
//! ```text
//!   QCircuit
//!      │  validate (items were validated on push; offsets re-checked)
//!      ▼
//!   flatten      sub-circuits inlined, qubit offsets resolved,
//!      │         barriers kept as explicit fence ops
//!      ▼
//!   fingerprint  structural word-at-a-time hash of the flat, unfused
//!                op stream
//!      │
//!      ▼
//!   fuse         optional gate-fusion pre-pass (the plan cache key
//!      │         includes the fusion options)
//!      ▼
//!   plan         op schedule with measurement/reset fences + the
//!                resource-guard byte estimate → CompiledProgram
//! ```
//!
//! The result is a [`CompiledProgram`]: a flat list of [`ProgramOp`]s
//! with **no** sub-circuits and **no** unresolved offsets, which every
//! executor (`simulate_with`, `to_matrix`, `density::run_noisy`,
//! `trajectory::run_*`, `stabilizer::run_program`) consumes directly.
//!
//! [`compile`] is the one way to a plan, through the plan cache: a
//! circuit asked for again shares one plan across callers and shots.

use crate::circuit::{CircuitItem, QCircuit};
use crate::error::QclabError;
use crate::gates::{shape, Gate, Shape};
use crate::measurement::{Basis, Measurement};
use crate::sim::fusion::{self, FusionStats, Placed, TargetMatrices, MAX_FUSED_QUBITS_LIMIT};
use crate::sim::guard::ResourceLimits;
use crate::sim::kernel::{self, KernelConfig, PARALLEL_THRESHOLD_QUBITS, SWEEP_TILE_QUBITS};
use crate::sim::sparse::DEFAULT_PRUNE_EPS;
use crate::sim::stabilizer::{basis_change, is_clifford_gate};
use qclab_math::rng::mix64;
use qclab_math::{CVec, C64};
use std::fmt;

pub(crate) mod cache;
mod remap;

pub use cache::{clear_plan_cache, compile, plan_cache_stats, PlanCacheStats, PLAN_CACHE_CAPACITY};

/// One operation of a lowered program. Qubit indices are absolute
/// (register-relative); there are no nested structures left.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgramOp {
    /// A unitary gate (possibly a fused block).
    Gate(Gate),
    /// A single-qubit measurement in its basis.
    Measure(Measurement),
    /// Reset of a qubit to `|0⟩`.
    Reset(usize),
    /// An explicit fence: a no-op at execution time, but a wall for the
    /// fusion pre-pass and any later reordering pass. Lowering keeps
    /// barriers as fences so every backend sees the same op stream —
    /// dropping them silently (as the old trajectory flattener did)
    /// risks cross-backend drift the moment a pass keys on them.
    Fence(Vec<usize>),
    /// A logical→physical layout change from the locality pass. `perm`
    /// is the physical movement realized *now*: the index bit at
    /// physical qubit `i` moves to physical qubit `perm[i]`. `map` is
    /// the logical→physical permutation active after this op (executors
    /// adopt it verbatim — it is never composed at run time). The
    /// executor permutes the amplitudes via
    /// [`crate::sim::kernel::permute_state`] — pure data movement, so
    /// executing a remapped plan is bit-identical to the unmapped one —
    /// in place, in one pair-exchange pass per involution `perm` splits
    /// into (single transpositions take the SWAP kernel).
    Permute {
        /// Physical movement: bit at qubit `i` goes to qubit `perm[i]`.
        perm: Vec<usize>,
        /// Logical→physical map active after this op.
        map: Vec<usize>,
    },
}

impl ProgramOp {
    /// `true` for a [`Permute`](ProgramOp::Permute) that only adopts a
    /// new layout — a SWAP gate the locality pass relabeled — and moves
    /// no amplitude.
    pub fn is_relabel(&self) -> bool {
        matches!(self, ProgramOp::Permute { perm, .. } if perm.iter().enumerate().all(|(q, &p)| q == p))
    }

    /// The qubits the op touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            ProgramOp::Gate(g) => g.qubits(),
            ProgramOp::Measure(m) => vec![m.qubit()],
            ProgramOp::Reset(q) => vec![*q],
            ProgramOp::Fence(qs) => qs.clone(),
            // the physical positions actually displaced
            ProgramOp::Permute { perm, .. } => (0..perm.len()).filter(|&i| perm[i] != i).collect(),
        }
    }
}

impl fmt::Display for ProgramOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qubits = |qs: &[usize]| {
            qs.iter()
                .map(|q| format!("q{q}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            ProgramOp::Gate(g) => write!(f, "gate    {:<8} {}", g.name(), qubits(&g.qubits())),
            ProgramOp::Measure(m) => {
                write!(f, "measure {:<8} q{}", m.basis().label(), m.qubit())
            }
            ProgramOp::Reset(q) => write!(f, "reset            q{q}"),
            ProgramOp::Fence(qs) => write!(f, "fence            {}", qubits(qs)),
            ProgramOp::Permute { map, .. } if self.is_relabel() => {
                let slots = (0..map.len())
                    .filter(|&q| map[q] != q)
                    .map(|q| format!("q{q}->p{}", map[q]))
                    .collect::<Vec<_>>()
                    .join(" ");
                write!(f, "relabel          {slots}")
            }
            ProgramOp::Permute { perm, .. } => {
                let swaps = (0..perm.len())
                    .filter(|&i| perm[i] != i)
                    .map(|i| format!("p{}->p{}", i, perm[i]))
                    .collect::<Vec<_>>()
                    .join(" ");
                write!(f, "permute          {swaps}")
            }
        }
    }
}

/// Options of the lowering pipeline — exactly the knobs that change the
/// produced op stream (all of them are part of the plan-cache key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Run the gate-fusion pre-pass on the flattened op stream.
    pub fuse: bool,
    /// Qubit-footprint cap for fused blocks, clamped to
    /// `1..=`[`MAX_FUSED_QUBITS_LIMIT`] like [`fusion::fuse_circuit`].
    pub max_fused_qubits: usize,
    /// Run the locality pass: relabel hot qubits into low-order index
    /// bits per gate window so the cache-blocked sweep and the
    /// LSB-stride SIMD kernels apply (inert for registers of
    /// ≤ [`SWEEP_TILE_QUBITS`] qubits).
    pub remap: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            fuse: true,
            max_fused_qubits: fusion::DEFAULT_MAX_FUSED_QUBITS,
            remap: true,
        }
    }
}

impl PlanOptions {
    /// Lowering without the fusion pass — the right options for engines
    /// that execute the original gates one by one at their source
    /// qubits: the sparse executor (fused dense blocks only coarsen its
    /// support bound, and it has no stride for locality to serve), the
    /// density-matrix runner (noise locations), the stabilizer tableau
    /// and the Pauli-frame sampler built on it (Clifford gates only), the
    /// `to_matrix` oracles. The locality pass is off too. The dense
    /// trajectory engine is *not* on this list: a noisy shot runs the
    /// fused plan and finds its noise locations through
    /// [`CompiledProgram::source`].
    pub fn unfused() -> Self {
        PlanOptions {
            fuse: false,
            remap: false,
            ..PlanOptions::default()
        }
    }

    /// Clamps the fusion cap so equivalent option sets share one cache
    /// entry.
    fn normalized(mut self) -> Self {
        self.max_fused_qubits = self.max_fused_qubits.clamp(1, MAX_FUSED_QUBITS_LIMIT);
        self
    }
}

impl From<&KernelConfig> for PlanOptions {
    fn from(cfg: &KernelConfig) -> Self {
        PlanOptions {
            fuse: cfg.fuse,
            max_fused_qubits: cfg.max_fused_qubits,
            remap: cfg.remap,
        }
    }
}

/// Statistics of one lowering run (the "plan" half of the pipeline).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Gates in the flattened stream before fusion.
    pub gates_in: usize,
    /// Gate ops in the compiled program (after fusion, if enabled).
    pub gates_out: usize,
    /// Fused blocks emitted (each replacing ≥ 2 input gates).
    pub fused_blocks: usize,
    /// Fence ops kept from barriers.
    pub fences: usize,
    /// Measurement ops.
    pub measurements: usize,
    /// Reset ops.
    pub resets: usize,
    /// Bytes a dense state vector for this register occupies (`None`
    /// when `2^n · 16` overflows a `u128`) — the guard estimate the CLI
    /// reports and executors re-check against their [`ResourceLimits`].
    /// This is the *dense* cost only; sparse admission goes through
    /// [`sparse_entries`](Self::sparse_entries) instead, so a program
    /// whose dense footprint is refused is not over-refused for the
    /// sparse executor.
    pub state_bytes: Option<u128>,
    /// Upper bound on the live entries a sparse execution of this
    /// program holds, summed over its branches, from a basis initial
    /// state, propagated op by op over the flat stream: permutation-
    /// and diagonal-shaped gates (X, CX, SWAP, RZ, …) preserve support,
    /// any other gate on `k` targets multiplies it by at most `2^k` (H
    /// and Ry double), a Z measurement or a reset shares it out between
    /// branches, and an X or Y measurement's basis change spreads it
    /// twice. A matrix entry counts only if the product it makes can
    /// survive the executor's pruning, so `rx(π)` preserves support
    /// while `rx(1e-12)` spreads it. Saturates at `2^n` per branch.
    pub sparse_entries: u128,
    /// Gate windows where the locality pass adopted a new layout.
    pub remap_windows: usize,
    /// General amplitude permutations emitted (three or more displaced
    /// index bits, including the trailing restore to the identity
    /// layout when it displaces that many).
    pub remap_moves: usize,
    /// Single-transposition layout changes, realized by the SWAP
    /// kernel inside [`crate::sim::kernel::permute_state`], which
    /// touches only the half of the state that moves.
    pub remap_folds: usize,
    /// SWAP gates the locality pass turned into relabels: layout
    /// changes that move no amplitude ([`ProgramOp::is_relabel`]).
    pub remap_relabels: usize,
    /// `true` when every op of the *source* schedule
    /// ([`CompiledProgram::source`]) is exactly representable on the
    /// stabilizer tableau: gates and measurement bases the stabilizer
    /// module's one Clifford table decomposes
    /// ([`crate::sim::stabilizer::is_clifford_gate`]; a custom basis has
    /// no tableau form), and resets. A property of the
    /// circuit, the same on every plan of it: such circuits are eligible
    /// for the Pauli-frame sampler ([`crate::sim::frame`]), which lowers
    /// them [`PlanOptions::unfused`].
    pub is_clifford: bool,
}

/// Shot-execution classification of a compiled program: the split the
/// trajectory engine uses to route repeated-shot workloads down cheaper
/// paths.
///
/// Every op stream partitions into a **deterministic prefix** — the
/// leading run of gates and fences, which evolves identically on every
/// shot of a gate-noiseless run — and a **stochastic suffix** starting
/// at the first measurement or reset, where outcomes (and any
/// measurement-site noise) diverge per shot. The prefix can be evolved
/// once and forked; when the suffix is nothing but single-visit
/// terminal measurements (the common `counts` shape), per-shot
/// evolution can be skipped entirely in favour of sampling the measured
/// marginal distribution (see [`crate::sim::sampler`]).
///
/// The classification is purely structural — whether a *run* may
/// actually fork or sample also depends on its noise configuration
/// (gate/idle noise makes every gate a stochastic site) and is decided
/// by [`route`](crate::sim::route::route).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShotPlan {
    /// Ops before the first measurement or reset (gates and fences
    /// only). Equals `ops().len()` for purely unitary programs.
    pub prefix_ops: usize,
    /// Ops from the first measurement or reset onward.
    pub suffix_ops: usize,
    /// Gate ops inside the prefix.
    pub prefix_gates: usize,
    /// Gate ops inside the suffix.
    pub suffix_gates: usize,
    /// `true` when the suffix consists only of measurements (plus
    /// fences) on pairwise-distinct qubits — the shape whose outcome
    /// distribution is a fixed marginal of the prefix state.
    pub terminal_measurements: bool,
    /// The measured qubits in execution order when
    /// [`terminal_measurements`](Self::terminal_measurements) holds
    /// (record character `j` is the outcome of `measured_qubits[j]`);
    /// empty otherwise.
    pub measured_qubits: Vec<usize>,
    /// Where a terminal draw reads its state in place, when it does: the
    /// index of the locality pass's trailing restore, which the draw
    /// stops before, and the logical→physical layout in force there,
    /// which it reads the measured qubits through. Only below
    /// [`PARALLEL_THRESHOLD_QUBITS`] — on a wider state a draw scattered
    /// over the layout costs more than the restore — and only where the
    /// layout keeps the unmeasured qubits in order, so every marginal
    /// entry adds its amplitudes in the order the restored state would.
    /// The plan keeps its restore: every other consumer still sees the
    /// logical layout.
    pub draw_in_place: Option<(usize, Vec<usize>)>,
}

impl ShotPlan {
    /// The ops a terminal draw evolves before it reads the state:
    /// [`prefix_ops`](Self::prefix_ops), or up to the restore it skips
    /// ([`draw_in_place`](Self::draw_in_place)).
    pub fn draw_ops(&self) -> usize {
        self.draw_in_place
            .as_ref()
            .map_or(self.prefix_ops, |(at, _)| *at)
    }

    /// Classifies a lowered op stream on `n` qubits. The partition never
    /// reorders anything: `ops[..prefix_ops]` and `ops[prefix_ops..]`
    /// concatenate back to the original schedule, fences included.
    fn classify(ops: &[ProgramOp], n: usize) -> ShotPlan {
        let prefix_ops = ops
            .iter()
            .position(|op| matches!(op, ProgramOp::Measure(_) | ProgramOp::Reset(_)))
            .unwrap_or(ops.len());
        let gate_count =
            |s: &[ProgramOp]| s.iter().filter(|o| matches!(o, ProgramOp::Gate(_))).count();
        let mut measured_qubits = Vec::new();
        let mut terminal_measurements = true;
        for op in &ops[prefix_ops..] {
            match op {
                ProgramOp::Measure(m) => {
                    if measured_qubits.contains(&m.qubit()) {
                        // a re-measured qubit's second outcome is
                        // conditioned on its first — not a fixed marginal
                        terminal_measurements = false;
                        break;
                    }
                    measured_qubits.push(m.qubit());
                }
                ProgramOp::Fence(_) => {}
                // a layout change in the suffix means the sampled
                // marginal would be read off a permuted state — the
                // locality pass keeps its restore inside the prefix for
                // exactly the terminal shape, so this only fires on
                // genuinely non-terminal programs
                ProgramOp::Gate(_) | ProgramOp::Reset(_) | ProgramOp::Permute { .. } => {
                    terminal_measurements = false;
                    break;
                }
            }
        }
        if !terminal_measurements {
            measured_qubits.clear();
        }
        let draw_in_place = (terminal_measurements && n < PARALLEL_THRESHOLD_QUBITS)
            .then(|| in_place_layout(&ops[..prefix_ops], &measured_qubits))
            .flatten();
        ShotPlan {
            prefix_ops,
            suffix_ops: ops.len() - prefix_ops,
            prefix_gates: gate_count(&ops[..prefix_ops]),
            suffix_gates: gate_count(&ops[prefix_ops..]),
            terminal_measurements,
            measured_qubits,
            draw_in_place,
        }
    }
}

/// The trailing restore of a terminal program's `prefix` and the layout
/// before it, when a draw of `measured` may read that layout in place:
/// the prefix's last layout change moves amplitudes back to the identity
/// layout, only fences follow it, and the unmeasured qubits sit in the
/// layout before it in their logical order.
fn in_place_layout(prefix: &[ProgramOp], measured: &[usize]) -> Option<(usize, Vec<usize>)> {
    let mut layouts = prefix
        .iter()
        .enumerate()
        .rev()
        .filter_map(|(i, op)| match op {
            ProgramOp::Permute { map, .. } => Some((i, map)),
            _ => None,
        });
    let (at, restored) = layouts.next()?;
    let identity = restored.iter().enumerate().all(|(q, &p)| q == p);
    if !identity || prefix[at].is_relabel() {
        return None;
    }
    let (_, layout) = layouts.next()?;
    let slots: Vec<usize> = (0..layout.len())
        .filter(|q| !measured.contains(q))
        .map(|q| layout[q])
        .collect();
    let tail = prefix[at + 1..]
        .iter()
        .all(|op| matches!(op, ProgramOp::Fence(_)));
    (tail && slots.windows(2).all(|w| w[0] < w[1])).then(|| (at, layout.clone()))
}

/// A circuit lowered to a flat op schedule: the shared IR all simulation
/// backends execute.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    nb_qubits: usize,
    fingerprint: u64,
    options: PlanOptions,
    ops: Vec<ProgramOp>,
    stats: PlanStats,
    shot_plan: ShotPlan,
    prefix_map: Option<Vec<usize>>,
    /// The source schedule and where each of its items went, kept when
    /// fusion or the locality pass made `ops` differ from it (`None`:
    /// `ops` *is* the source, item for item).
    source: Option<(Vec<ProgramOp>, Vec<Placed>)>,
    /// Lazily-compiled bytecode ([`crate::sim::bytecode`]): the op
    /// schedule lowered one step further into flat instructions with
    /// every kernel operand precomputed. Lives inside the plan, so the
    /// fingerprint-keyed cache ([`compile`]) hands every executor the
    /// same compiled instruction buffer — cache hits pay zero
    /// re-preparation.
    bytecode: std::sync::OnceLock<std::sync::Arc<crate::sim::bytecode::Bytecode>>,
    /// Lazily-lowered Pauli-frame stream ([`crate::sim::frame`]):
    /// per-op frame conjugations plus noise-site lists, compiled once
    /// per plan (`None` when the stream is not Clifford). Rides the
    /// same fingerprint-keyed cache as the bytecode.
    frame: std::sync::OnceLock<Option<std::sync::Arc<crate::sim::frame::FrameProgram>>>,
    /// Retained seed-independent preparation of a sampled trajectory
    /// run over this plan (evolved prefix → marginal + sampler), filled
    /// by the first such run at most [`RETAINED_BYTES_CAP`] bytes large — see
    /// [`crate::sim::trajectory`]. Rides the same cache, so a circuit
    /// the process has been asked for twice is resampled at the cost of
    /// its shots.
    prep: crate::sim::prep::PrepSlot,
    /// Lazily-built map from the noise sites of the source schedule to
    /// the ops that execute them ([`crate::sim::walk::Landings`]) — only
    /// a noisy state-vector run asks for it.
    landings: std::sync::OnceLock<std::sync::Arc<crate::sim::walk::Landings>>,
}

impl CompiledProgram {
    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// The structural fingerprint of the *source* circuit (computed on
    /// the flat, unfused stream — independent of the fusion options).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The options the program was lowered with.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// The op schedule.
    pub fn ops(&self) -> &[ProgramOp] {
        &self.ops
    }

    /// The source schedule: the circuit flattened (sub-circuits inlined,
    /// offsets resolved, barriers as fences) but neither fused nor
    /// relabeled — what [`PlanOptions::unfused`] lowers to. Noise sites
    /// and [`InjectedPauli::op_index`](crate::sim::trajectory::InjectedPauli)
    /// are numbered on it, whatever plan executes.
    pub fn source(&self) -> &[ProgramOp] {
        self.source.as_ref().map_or(&self.ops, |(source, _)| source)
    }

    /// Where source item `s` went: the op of [`ops`](Self::ops) that
    /// executes it and its position among the source gates of that op.
    pub(crate) fn placed(&self, s: usize) -> Placed {
        self.source
            .as_ref()
            .map_or(Placed { op: s, pos: 0 }, |(_, placed)| placed[s])
    }

    /// Lowering statistics.
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// The shot-execution classification: deterministic prefix vs
    /// stochastic suffix, and terminal-measurement eligibility. Cached
    /// with the plan, so repeated-shot executors classify once.
    pub fn shot_plan(&self) -> &ShotPlan {
        &self.shot_plan
    }

    /// The logical→physical map active at the end of the deterministic
    /// shot prefix, or `None` when the prefix ends in the identity
    /// layout (always the case with the locality pass off, and for
    /// terminal-measurement programs, whose restore sits inside the
    /// prefix). The trajectory fork path's prefix snapshot ends in this
    /// layout (the stream's `Permute` instructions carry it there), and
    /// forked suffixes resume under it.
    pub fn prefix_map(&self) -> Option<&[usize]> {
        self.prefix_map.as_deref()
    }

    /// The program's compiled bytecode ([`crate::sim::bytecode`]),
    /// lowered on first use and cached on the plan. Plans are shared as
    /// `Arc<CompiledProgram>` through the fingerprint-keyed cache, so
    /// every subsequent executor — and every shot of every trajectory
    /// ensemble — reuses one instruction buffer.
    pub fn bytecode(&self) -> std::sync::Arc<crate::sim::bytecode::Bytecode> {
        self.bytecode
            .get_or_init(|| std::sync::Arc::new(crate::sim::bytecode::Bytecode::compile(self)))
            .clone()
    }

    /// The program's Pauli-frame stream ([`crate::sim::frame`]), or
    /// `None` when the op schedule is not Clifford
    /// ([`PlanStats::is_clifford`]). Lowered on first use and cached on
    /// the plan, so every frame-sampled ensemble over a cached plan
    /// reuses one stream.
    pub fn frame_program(&self) -> Option<std::sync::Arc<crate::sim::frame::FrameProgram>> {
        self.frame
            .get_or_init(|| crate::sim::frame::FrameProgram::compile(self).map(std::sync::Arc::new))
            .clone()
    }

    /// The plan's retained trajectory preparation.
    pub(crate) fn prep(&self) -> &crate::sim::prep::PrepSlot {
        &self.prep
    }

    /// Where a noise hit of the source schedule lands in this plan
    /// ([`crate::sim::walk::Landings`]), built on first use and cached on
    /// the plan like the bytecode.
    pub(crate) fn landings(&self) -> &crate::sim::walk::Landings {
        self.landings
            .get_or_init(|| std::sync::Arc::new(crate::sim::walk::Landings::of(self)))
    }

    /// `true` when the program contains no measurements or resets, i.e.
    /// it implements a unitary.
    pub fn is_unitary(&self) -> bool {
        self.stats.measurements == 0 && self.stats.resets == 0
    }

    /// Applies all ops to `state` in place (fences are no-ops). A
    /// program that is not [`is_unitary`](Self::is_unitary) is refused
    /// with [`QclabError::NonUnitaryCircuit`] before anything is applied.
    pub fn apply_unitary(&self, state: &mut CVec) -> Result<(), QclabError> {
        if !self.is_unitary() {
            return Err(QclabError::NonUnitaryCircuit("apply_unitary".into()));
        }
        let n = state.nb_qubits();
        debug_assert_eq!(n, self.nb_qubits);
        for op in &self.ops {
            match op {
                ProgramOp::Gate(g) => kernel::apply_gate(g, state, n, &KernelConfig::default()),
                ProgramOp::Permute { perm, .. } => {
                    kernel::permute_state(state, n, perm, false);
                }
                // none left once `is_unitary` holds
                ProgramOp::Fence(_) | ProgramOp::Measure(_) | ProgramOp::Reset(_) => {}
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// fingerprint
// ---------------------------------------------------------------------

/// A 64-bit content hash fed one word at a time. Each step rotates the
/// state, xors the word in and multiplies by an odd constant — a
/// bijection of the state, so two streams that differ in one word never
/// collide — and the SplitMix64 finalizer mixes the result. Hand-rolled
/// so the value is stable across Rust versions and needs no external
/// dependency.
struct WordHash(u64);

impl WordHash {
    fn new() -> Self {
        WordHash(0)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    /// Exact bit pattern, so any parameter perturbation — even below
    /// printing precision — changes the hash.
    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// A square matrix of dimension `dim`, row-major.
    fn matrix(&mut self, dim: usize, entries: &[C64]) {
        self.usize(dim);
        self.usize(dim);
        for z in entries {
            self.f64(z.re);
            self.f64(z.im);
        }
    }

    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// Hashes the items of `circuit` (qubits shifted by `offset`) into `h`.
/// Sub-circuits are hashed through their *content* at their resolved
/// offsets, so nesting vs. manual inlining hash equal exactly when the
/// flattened op streams are equal. `matrix` is room for a gate's target
/// matrix, reused gate after gate.
fn hash_items(circuit: &QCircuit, offset: usize, h: &mut WordHash, matrix: &mut Vec<C64>) {
    for item in circuit.items() {
        match item {
            CircuitItem::Gate(g) => {
                h.word(1);
                let targets = g.target_qubits();
                h.usize(targets.len());
                for &q in targets.iter() {
                    h.usize(q + offset);
                }
                // control order is semantically irrelevant: the controls
                // enter as a sum of their mixed (qubit, state) words
                let (controls, states) = g.control_lists();
                h.usize(controls.len());
                let set = controls.iter().zip(states).fold(0u64, |acc, (&q, &s)| {
                    acc.wrapping_add(mix64(((q + offset) as u64) << 1 | s as u64))
                });
                h.word(set);
                // the target matrix carries every parameter bit; custom
                // gate *names* are display-only and deliberately skipped
                matrix.clear();
                let dim = g.write_target_matrix(matrix);
                h.matrix(dim, matrix);
            }
            CircuitItem::Measurement(m) => {
                h.word(2);
                h.usize(m.qubit() + offset);
                // the basis-change matrix identifies the basis (Z/X/Y or
                // custom) without depending on display labels
                let v = m.basis().change_matrix();
                h.matrix(v.rows(), v.as_slice());
            }
            CircuitItem::Reset(q) => {
                h.word(3);
                h.usize(q + offset);
            }
            CircuitItem::Barrier(qs) => {
                h.word(4);
                h.usize(qs.len());
                for q in qs {
                    h.usize(q + offset);
                }
            }
            CircuitItem::SubCircuit {
                offset: sub_off,
                circuit: sub,
            } => hash_items(sub, offset + sub_off, h, matrix),
        }
    }
}

/// Structural content hash of a circuit: register size plus the flat,
/// unfused op stream (gates with targets/controls/parameter bits,
/// measurements with their basis, resets, barriers). Two circuits hash
/// equal iff their flattened streams are identical — in particular a
/// nested sub-circuit and its manual inlining hash equal. Values are a
/// cache key, not a stable format: they change when the hash does.
pub fn fingerprint(circuit: &QCircuit) -> u64 {
    let mut h = WordHash::new();
    h.usize(circuit.nb_qubits());
    hash_items(circuit, 0, &mut h, &mut Vec::new());
    h.finish()
}

// ---------------------------------------------------------------------
// lowering
// ---------------------------------------------------------------------

/// Flattens a circuit into a single item list with offsets resolved and
/// barriers kept. This is the **only** `CircuitItem::SubCircuit` walker
/// in the simulation stack.
fn flatten_items(circuit: &QCircuit, offset: usize, out: &mut Vec<CircuitItem>) {
    for item in circuit.items() {
        match item {
            CircuitItem::Gate(g) => out.push(CircuitItem::Gate(if offset == 0 {
                g.clone()
            } else {
                g.shifted(offset)
            })),
            CircuitItem::Measurement(m) => out.push(CircuitItem::Measurement(if offset == 0 {
                m.clone()
            } else {
                m.shifted(offset)
            })),
            CircuitItem::Reset(q) => out.push(CircuitItem::Reset(q + offset)),
            CircuitItem::Barrier(qs) => out.push(CircuitItem::Barrier(
                qs.iter().map(|q| q + offset).collect(),
            )),
            CircuitItem::SubCircuit {
                offset: sub_off,
                circuit: sub,
            } => flatten_items(sub, offset + sub_off, out),
        }
    }
}

/// The support bound's running state over a sparse execution: live
/// entries summed over the branches, the most branches there can be, and
/// the qubits each branch holds at one value; a branch holds at most
/// `2^free` entries, `free` being the qubits not held.
struct Support {
    entries: u128,
    branches: u128,
    fixed: Vec<bool>,
}

impl Support {
    /// A `dim × dim` matrix on `targets`. Only the matrix entries whose
    /// products can survive `SparseState::apply_gate`'s pruning count:
    /// an amplitude is at most 1, so the entries at or below the floor
    /// add at most `DEFAULT_PRUNE_EPS / 2` to any output, which is
    /// pruned; the 2 covers rounding in the sum. A diagonal keeps every
    /// entry on its index, a permutation moves it to one other, anything
    /// else spreads it over at most `dim` (controls never spread).
    fn apply(&mut self, targets: &[usize], (dim, entries): (usize, &[C64])) {
        let shape = shape(dim, entries, DEFAULT_PRUNE_EPS / (2.0 * dim as f64));
        if shape == Shape::Diagonal {
            return;
        }
        for &q in targets {
            self.fixed[q] = false;
        }
        if shape == Shape::Dense {
            let free = self.fixed.iter().filter(|&&held| !held).count();
            let cap = 1u128
                .checked_shl(free as u32)
                .unwrap_or(u128::MAX)
                .saturating_mul(self.branches);
            self.entries = self.entries.saturating_mul(dim as u128).min(cap);
        }
    }

    /// A Z split of `q`: it shares each branch's entries out between its
    /// two outcomes, and only a free qubit has two.
    fn split(&mut self, q: usize) {
        if !std::mem::replace(&mut self.fixed[q], true) {
            self.branches = self.branches.saturating_mul(2);
        }
    }
}

/// Upper bound on the live entries a sparse execution of the flat stream
/// holds, summed over its branches, from a basis initial state (see
/// [`PlanStats::sparse_entries`]). Computed on the *unfused* stream so
/// the bound is identical across every plan of one circuit: fusion would
/// coarsen a run of support-preserving gates into one dense block.
fn estimate_sparse_entries(flat: &[CircuitItem], mats: &TargetMatrices, nb_qubits: usize) -> u128 {
    let mut support = Support {
        entries: 1,
        branches: 1,
        fixed: vec![false; nb_qubits],
    };
    for (i, item) in flat.iter().enumerate() {
        match item {
            CircuitItem::Gate(g) => support.apply(&g.target_qubits(), mats.get(i)),
            // off Z, the split is the basis change V† before it and V
            // after it, as the executor runs it
            CircuitItem::Measurement(m) if *m.basis() != Basis::Z => {
                let v = m.basis().change_matrix();
                support.apply(&[m.qubit()], (2, v.dagger().as_slice()));
                support.split(m.qubit());
                support.apply(&[m.qubit()], (2, v.as_slice()));
            }
            CircuitItem::Measurement(m) => support.split(m.qubit()),
            CircuitItem::Reset(q) => support.split(*q),
            _ => {}
        }
    }
    support.entries
}

/// Lowers a circuit to a [`CompiledProgram`] without consulting the plan
/// cache. Use [`compile`] unless you are measuring lowering cost itself
/// (`qclab-e2e`'s `program.lower_us`) or deliberately want a private plan.
pub fn lower(circuit: &QCircuit, options: &PlanOptions) -> CompiledProgram {
    let options = options.normalized();
    let nb_qubits = circuit.nb_qubits();
    let fingerprint = circuit.fingerprint();

    let mut flat = Vec::with_capacity(circuit.len());
    flatten_items(circuit, 0, &mut flat);
    // every pass below reads a gate's target matrix from here: it is
    // built once per lowering, trig and all
    let mats = TargetMatrices::of(&flat);

    let mut stats = PlanStats {
        state_bytes: ResourceLimits::state_bytes(nb_qubits),
        sparse_entries: estimate_sparse_entries(&flat, &mats, nb_qubits),
        ..PlanStats::default()
    };

    // the ops that execute, and — when they differ from it — the source
    // schedule with the place of each of its items
    let (mut ops, mut source) = if options.fuse {
        // fusing the flattened stream lets blocks form across former
        // sub-circuit boundaries; the pass itself treats measurements,
        // resets and fences as walls on their qubits
        let mut fstats = FusionStats::default();
        let (fused, placed) = fusion::fuse_items(
            &flat,
            &mats,
            nb_qubits,
            options.max_fused_qubits,
            &mut fstats,
        );
        stats.gates_in = fstats.gates_in;
        stats.gates_out = fstats.gates_out;
        stats.fused_blocks = fstats.blocks;
        (to_ops(fused), Some((to_ops(flat), placed)))
    } else {
        (to_ops(flat), None)
    };
    // counts and the Clifford classification are taken on the source
    // schedule: properties of the circuit, whatever fusion made of it
    let schedule = source.as_ref().map_or(&ops, |(source, _)| source);
    let mut gates = 0;
    for op in schedule {
        match op {
            ProgramOp::Gate(_) => gates += 1,
            ProgramOp::Measure(_) => stats.measurements += 1,
            ProgramOp::Reset(_) => stats.resets += 1,
            ProgramOp::Fence(_) => stats.fences += 1,
            ProgramOp::Permute { .. } => {}
        }
    }
    if !options.fuse {
        (stats.gates_in, stats.gates_out) = (gates, gates);
    }
    stats.is_clifford = schedule.iter().all(|op| match op {
        ProgramOp::Gate(g) => is_clifford_gate(g),
        ProgramOp::Measure(m) => basis_change(m.basis(), m.qubit()).is_some(),
        ProgramOp::Reset(_) | ProgramOp::Fence(_) | ProgramOp::Permute { .. } => true,
    });

    // inert for registers that fit in one sweep tile
    if options.remap && nb_qubits > SWEEP_TILE_QUBITS {
        // unfused, the source schedule is the stream as it stands
        let unmapped = source.take().ok_or_else(|| ops.clone());
        let unmapped_len = ops.len();
        ops = remap::remap_ops(ops, nb_qubits, &mut stats);
        source = if ops.len() == unmapped_len && stats.remap_relabels == 0 {
            unmapped.ok()
        } else {
            // layout changes went in: every op after the first one moved
            // down the schedule (and was relabeled); a relabel stands in
            // the place of the SWAP gate it executes
            let at: Vec<usize> = (0..ops.len())
                .filter(|&i| !matches!(ops[i], ProgramOp::Permute { .. }) || ops[i].is_relabel())
                .collect();
            Some(match unmapped {
                Ok((source, mut placed)) => {
                    for p in &mut placed {
                        p.op = at[p.op];
                    }
                    (source, placed)
                }
                Err(unmapped) => (
                    unmapped,
                    at.iter().map(|&op| Placed { op, pos: 0 }).collect(),
                ),
            })
        };
    }

    let shot_plan = ShotPlan::classify(&ops, nb_qubits);

    // the layout the prefix ends in (forked suffixes resume under it)
    let mut prefix_map: Option<Vec<usize>> = None;
    for op in &ops[..shot_plan.prefix_ops] {
        if let ProgramOp::Permute { map, .. } = op {
            prefix_map = Some(map.clone());
        }
    }
    let prefix_map = prefix_map.filter(|m| m.iter().enumerate().any(|(q, &p)| q != p));

    CompiledProgram {
        nb_qubits,
        fingerprint,
        options,
        ops,
        stats,
        shot_plan,
        prefix_map,
        source,
        bytecode: std::sync::OnceLock::new(),
        frame: std::sync::OnceLock::new(),
        prep: Default::default(),
        landings: std::sync::OnceLock::new(),
    }
}

/// A flat item list (the flattener's output, or the fusion pass's over
/// it) as program ops, item for item.
fn to_ops(items: Vec<CircuitItem>) -> Vec<ProgramOp> {
    items
        .into_iter()
        .map(|item| match item {
            CircuitItem::Gate(g) => ProgramOp::Gate(g),
            CircuitItem::Measurement(m) => ProgramOp::Measure(m),
            CircuitItem::Reset(q) => ProgramOp::Reset(q),
            CircuitItem::Barrier(qs) => ProgramOp::Fence(qs),
            // invariant: `flatten` emits no sub-circuit, and fusion emits
            // only the gates, measurements, resets and barriers it reads
            CircuitItem::SubCircuit { .. } => unreachable!("sub-circuit survived flattening"),
        })
        .collect()
}

/// Most bytes a plan may retain of a trajectory run's one-time
/// preparation (sampler tables and outcome list), and most source text
/// `qclab serve` remembers parsed circuits for — not a tuning knob, the
/// one bound that keeps "remember what was already solved" from growing
/// with the traffic: the resident plans hold at most
/// [`PLAN_CACHE_CAPACITY`]` × RETAINED_BYTES_CAP` bytes of
/// preparations (32 MiB at the defaults), and a plan asked for once
/// holds its preparation only as long as a caller holds the plan.
/// 1 MiB keeps a `2^17`-outcome terminal table and nothing larger. A
/// larger table could never be kept — nor one on a plan nothing else
/// holds — so a noiseless run streams its draw over the state instead of
/// building one, unless its shots' sorted points would outweigh the
/// table (`sim::route::TerminalDraw`). Whether holding a `2^20`-outcome
/// table (8 MiB) would be worth its bytes is for the cost model to weigh
/// per plan, not for a second constant.
pub const RETAINED_BYTES_CAP: usize = 1 << 20;

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // a test may let a refused thread panic
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;

    fn bell() -> QCircuit {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c
    }

    #[test]
    fn equal_circuits_hash_equal() {
        assert_eq!(fingerprint(&bell()), fingerprint(&bell()));
        let mut a = bell();
        a.push_back(Measurement::x(1));
        let mut b = bell();
        b.push_back(Measurement::x(1));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn any_perturbation_changes_the_hash() {
        let base = {
            let mut c = QCircuit::new(2);
            c.push_back(RotationX::new(0, 0.5));
            c.push_back(CNOT::new(0, 1));
            c.push_back(Measurement::z(0));
            c
        };
        let fp = fingerprint(&base);

        // different gate type on the same qubit
        let mut c = QCircuit::new(2);
        c.push_back(RotationY::new(0, 0.5));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);

        // parameter perturbed by one ulp
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(0, f64::from_bits(0.5f64.to_bits() + 1)));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);

        // different target qubit
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(1, 0.5));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);

        // control state flipped (open vs filled dot)
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(0, 0.5));
        c.push_back(CNOT::with_control_state(0, 1, 0));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);

        // measurement basis changed
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(0, 0.5));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::x(0));
        assert_ne!(fingerprint(&c), fp);

        // op order swapped
        let mut c = QCircuit::new(2);
        c.push_back(CNOT::new(0, 1));
        c.push_back(RotationX::new(0, 0.5));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);

        // extra barrier
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(0, 0.5));
        c.push_back(CircuitItem::Barrier(vec![0, 1]));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);

        // wider register, same items
        let mut c = QCircuit::new(3);
        c.push_back(RotationX::new(0, 0.5));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        assert_ne!(fingerprint(&c), fp);
    }

    #[test]
    fn nesting_vs_inlining_hash_equal_iff_semantics_match() {
        // bell as a sub-circuit at offset 1 of a 3-qubit register …
        let mut nested = QCircuit::new(3);
        nested.push_back_at(1, bell()).unwrap();
        // … equals the manual inlining on shifted qubits
        let mut inlined = QCircuit::new(3);
        inlined.push_back(Hadamard::new(1));
        inlined.push_back(CNOT::new(1, 2));
        assert_eq!(fingerprint(&nested), fingerprint(&inlined));

        // but a different placement is a different circuit
        let mut elsewhere = QCircuit::new(3);
        elsewhere.push_back_at(0, bell()).unwrap();
        assert_ne!(fingerprint(&nested), fingerprint(&elsewhere));

        // double nesting still flattens to the same stream
        let mut inner = QCircuit::new(2);
        inner.push_back_at(0, bell()).unwrap();
        let mut doubled = QCircuit::new(3);
        doubled.push_back_at(1, inner).unwrap();
        assert_eq!(fingerprint(&doubled), fingerprint(&inlined));
    }

    #[test]
    fn qcircuit_fingerprint_method_delegates() {
        assert_eq!(bell().fingerprint(), fingerprint(&bell()));
    }

    #[test]
    fn lowering_flattens_and_keeps_fences() {
        let mut sub = QCircuit::new(2);
        sub.push_back(Hadamard::new(0));
        sub.push_back(CircuitItem::Barrier(vec![0, 1]));
        sub.push_back(CNOT::new(0, 1));
        let mut c = QCircuit::new(3);
        c.push_back_at(1, sub).unwrap();
        c.push_back(Measurement::z(2));
        c.push_back(CircuitItem::Reset(0));

        let p = lower(&c, &PlanOptions::unfused());
        let kinds: Vec<String> = p.ops().iter().map(|o| o.to_string()).collect();
        assert_eq!(p.ops().len(), 5, "{kinds:?}");
        assert!(matches!(&p.ops()[0], ProgramOp::Gate(g) if g.qubits() == vec![1]));
        assert!(matches!(&p.ops()[1], ProgramOp::Fence(qs) if *qs == vec![1, 2]));
        assert!(matches!(&p.ops()[2], ProgramOp::Gate(g) if g.qubits() == vec![1, 2]));
        assert!(matches!(&p.ops()[3], ProgramOp::Measure(m) if m.qubit() == 2));
        assert!(matches!(&p.ops()[4], ProgramOp::Reset(0)));
        assert_eq!(p.stats().fences, 1);
        assert_eq!(p.stats().measurements, 1);
        assert_eq!(p.stats().resets, 1);
        assert_eq!(p.stats().gates_in, 2);
        assert!(!p.is_unitary());
    }

    #[test]
    fn fences_block_fusion_in_the_lowered_program() {
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(CircuitItem::Barrier(vec![0]));
        c.push_back(Hadamard::new(0));
        let p = lower(&c, &PlanOptions::default());
        assert_eq!(p.stats().gates_out, 2, "fence must block fusion");
        assert_eq!(p.stats().fused_blocks, 0);
        assert_eq!(p.stats().fences, 1);

        // without the barrier the pair fuses to one block
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(Hadamard::new(0));
        let p = lower(&c, &PlanOptions::default());
        assert_eq!(p.stats().gates_out, 1);
        assert_eq!(p.stats().fused_blocks, 1);
    }

    #[test]
    fn fusion_crosses_former_subcircuit_boundaries() {
        // H on q0 inside a sub-circuit, then T on q0 outside: after
        // flattening they are causally adjacent and fuse
        let mut sub = QCircuit::new(1);
        sub.push_back(Hadamard::new(0));
        let mut c = QCircuit::new(1);
        c.push_back_at(0, sub).unwrap();
        c.push_back(TGate::new(0));
        let p = lower(&c, &PlanOptions::default());
        assert_eq!(p.stats().gates_out, 1);
        assert_eq!(p.stats().fused_blocks, 1);
    }

    #[test]
    fn apply_unitary_matches_per_item_application() {
        let c = bell();
        let p = lower(&c, &PlanOptions::unfused());
        assert!(p.is_unitary());
        let mut v = CVec::basis_state(4, 0);
        p.apply_unitary(&mut v).unwrap();
        let mut expect = CVec::basis_state(4, 0);
        for item in c.items() {
            if let CircuitItem::Gate(g) = item {
                kernel::apply_gate(g, &mut expect, 2, &KernelConfig::default());
            }
        }
        for (a, b) in v.iter().zip(expect.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn apply_unitary_refuses_a_measured_plan() {
        let mut c = bell();
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        let p = compile(&c, &PlanOptions::default());
        let mut v = CVec::basis_state(4, 0);
        assert!(matches!(
            p.apply_unitary(&mut v),
            Err(QclabError::NonUnitaryCircuit(_))
        ));
        // refused before anything was applied
        assert_eq!(v, CVec::basis_state(4, 0));
    }

    #[test]
    fn shot_plan_classifies_terminal_measurement_circuits() {
        // unitary prefix + distinct terminal measurements: the counts shape
        let mut c = bell();
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::x(1));
        let p = lower(&c, &PlanOptions::unfused());
        let sp = p.shot_plan();
        assert_eq!(sp.prefix_ops, 2);
        assert_eq!(sp.suffix_ops, 2);
        assert_eq!(sp.prefix_gates, 2);
        assert_eq!(sp.suffix_gates, 0);
        assert!(sp.terminal_measurements);
        assert_eq!(sp.measured_qubits, vec![0, 1]);

        // purely unitary program: everything is prefix, trivially terminal
        let p = lower(&bell(), &PlanOptions::unfused());
        assert_eq!(p.shot_plan().prefix_ops, 2);
        assert_eq!(p.shot_plan().suffix_ops, 0);
        assert!(p.shot_plan().terminal_measurements);
        assert!(p.shot_plan().measured_qubits.is_empty());
    }

    #[test]
    fn shot_plan_rejects_non_terminal_suffixes() {
        // gate after a measurement: fork-eligible, not sample-eligible
        let mut c = bell();
        c.push_back(Measurement::z(0));
        c.push_back(Hadamard::new(1));
        let sp = lower(&c, &PlanOptions::unfused()).shot_plan().clone();
        assert_eq!(sp.prefix_ops, 2);
        assert_eq!(sp.suffix_ops, 2);
        assert_eq!(sp.suffix_gates, 1);
        assert!(!sp.terminal_measurements);
        assert!(sp.measured_qubits.is_empty());

        // reset in the suffix
        let mut c = bell();
        c.push_back(CircuitItem::Reset(0));
        let sp = lower(&c, &PlanOptions::unfused()).shot_plan().clone();
        assert_eq!(sp.prefix_ops, 2);
        assert!(!sp.terminal_measurements);

        // the same qubit measured twice is conditioned, not a marginal
        let mut c = bell();
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::x(0));
        let sp = lower(&c, &PlanOptions::unfused()).shot_plan().clone();
        assert!(!sp.terminal_measurements);

        // a circuit that *starts* with a measurement has an empty prefix
        let mut c = QCircuit::new(2);
        c.push_back(Measurement::z(0));
        c.push_back(Hadamard::new(0));
        let sp = lower(&c, &PlanOptions::unfused()).shot_plan().clone();
        assert_eq!(sp.prefix_ops, 0);
        assert_eq!(sp.suffix_ops, 2);
    }

    #[test]
    fn shot_plan_keeps_fences_in_place() {
        // fences survive in both halves and never move across the split
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CircuitItem::Barrier(vec![0, 1]));
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(0));
        c.push_back(CircuitItem::Barrier(vec![1]));
        c.push_back(Measurement::z(1));
        let p = lower(&c, &PlanOptions::unfused());
        let sp = p.shot_plan();
        assert_eq!(sp.prefix_ops, 3);
        assert!(matches!(&p.ops()[1], ProgramOp::Fence(_)));
        assert!(matches!(&p.ops()[4], ProgramOp::Fence(_)));
        assert!(sp.terminal_measurements, "suffix fences are harmless");
        assert_eq!(sp.measured_qubits, vec![0, 1]);
    }

    #[test]
    fn plan_stats_report_guard_estimate() {
        let p = lower(&bell(), &PlanOptions::default());
        assert_eq!(p.stats().state_bytes, Some(64)); // 4 amplitudes × 16 B
        let wide = QCircuit::new(200);
        let p = lower(&wide, &PlanOptions::default());
        assert_eq!(p.stats().state_bytes, None);
    }

    /// Many unfusable gates hammering the high-stride qubits — the
    /// workload the locality cost model is guaranteed to accept at
    /// `n > SWEEP_TILE_QUBITS` (lowered with fusion off so the far
    /// gates don't collapse into one block).
    fn far_heavy(n: usize) -> QCircuit {
        let mut c = QCircuit::new(n);
        for rep in 0..12 {
            c.push_back(Hadamard::new(0));
            c.push_back(CNOT::new(0, 1));
            c.push_back(RotationX::new(1, 0.3 + rep as f64));
            c.push_back(CNOT::new(1, 2));
            c.push_back(RotationZ::new(2, 0.7 * rep as f64));
            c.push_back(CNOT::new(2, 0));
        }
        c
    }

    fn remap_opts() -> PlanOptions {
        PlanOptions {
            fuse: false,
            remap: true,
            ..PlanOptions::default()
        }
    }

    #[test]
    fn remap_is_inert_when_the_register_fits_one_tile() {
        // at n <= SWEEP_TILE_QUBITS every qubit is already tile-resident
        let p = lower(
            &far_heavy(crate::sim::kernel::SWEEP_TILE_QUBITS),
            &remap_opts(),
        );
        assert!(p
            .ops()
            .iter()
            .all(|op| !matches!(op, ProgramOp::Permute { .. })));
        assert_eq!(p.stats().remap_windows, 0);
        assert_eq!(p.stats().remap_moves + p.stats().remap_folds, 0);
    }

    #[test]
    fn remap_relabels_hot_qubits_and_restores_the_identity_layout() {
        let n = crate::sim::kernel::SWEEP_TILE_QUBITS + 2;
        let p = lower(&far_heavy(n), &remap_opts());
        let stats = p.stats();
        assert!(
            stats.remap_windows >= 1,
            "cost model must fire, got {stats:?}"
        );
        assert!(
            stats.remap_moves + stats.remap_folds >= 2,
            "expected a transition and a restore, got {stats:?}"
        );

        let permutes: Vec<&ProgramOp> = p
            .ops()
            .iter()
            .filter(|op| matches!(op, ProgramOp::Permute { .. }))
            .collect();
        assert_eq!(
            permutes.len(),
            stats.remap_moves + stats.remap_folds,
            "every counted transition must appear in the op stream"
        );
        // the final Permute restores the identity layout
        let ProgramOp::Permute { map, .. } = permutes.last().unwrap() else {
            unreachable!()
        };
        assert_eq!(*map, (0..n).collect::<Vec<_>>(), "missing identity restore");
        // composing all physical movements yields the identity: the
        // state ends the program in its logical layout
        let mut pos: Vec<usize> = (0..n).collect();
        for op in p.ops() {
            if let ProgramOp::Permute { perm, .. } = op {
                pos = pos.iter().map(|&q| perm[q]).collect();
            }
        }
        assert_eq!(pos, (0..n).collect::<Vec<_>>());
        // between the first transition and the restore, gates run on
        // relabeled (tile-resident) targets
        let first = p
            .ops()
            .iter()
            .position(|op| matches!(op, ProgramOp::Permute { .. }))
            .unwrap();
        let b = crate::sim::kernel::SWEEP_TILE_QUBITS;
        let relabeled_near = p.ops()[first + 1..]
            .iter()
            .take_while(|op| !matches!(op, ProgramOp::Permute { .. }))
            .filter_map(|op| match op {
                ProgramOp::Gate(g) => Some(g),
                _ => None,
            })
            .all(|g| g.targets().iter().all(|&t| t >= n - b));
        assert!(
            relabeled_near,
            "remapped window gates must target the hot tile"
        );
    }

    #[test]
    fn remap_with_the_pass_off_emits_no_permutes() {
        let n = crate::sim::kernel::SWEEP_TILE_QUBITS + 2;
        let opts = PlanOptions {
            remap: false,
            ..remap_opts()
        };
        let p = lower(&far_heavy(n), &opts);
        assert!(p
            .ops()
            .iter()
            .all(|op| !matches!(op, ProgramOp::Permute { .. })));
        assert_eq!(p.stats().remap_windows, 0);
    }

    #[test]
    fn the_source_schedule_and_its_placement_survive_every_pass() {
        let n = crate::sim::kernel::SWEEP_TILE_QUBITS + 2;
        let mut c = far_heavy(n);
        c.push_back(Measurement::z(1));
        c.push_back(CircuitItem::Reset(0));
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::x(0));
        let unfused = lower(&c, &PlanOptions::unfused());
        assert_eq!(unfused.source(), unfused.ops());
        for options in [
            PlanOptions::default(),
            remap_opts(),
            PlanOptions {
                remap: false,
                ..PlanOptions::default()
            },
        ] {
            let p = lower(&c, &options);
            assert!(!options.remap || p.stats().remap_windows >= 1);
            // every plan of the circuit carries the same source
            assert_eq!(p.source(), unfused.ops(), "{options:?}");
            assert_eq!(p.stats().is_clifford, unfused.stats().is_clifford);
            let mut last_on = vec![(0usize, 0usize); n];
            for (s, item) in p.source().iter().enumerate() {
                let at = p.placed(s);
                // an item is executed by an op of its own kind …
                match (item, &p.ops()[at.op]) {
                    (ProgramOp::Gate(_), ProgramOp::Gate(_)) => {}
                    (item, op) => assert_eq!(item, op, "{options:?}: source op {s}"),
                }
                // … and items that share a qubit keep their order
                for q in item.qubits() {
                    assert!(last_on[q] <= (at.op, at.pos), "{options:?}: source op {s}");
                    last_on[q] = (at.op, at.pos);
                }
            }
        }
    }

    #[test]
    fn terminal_sampling_survives_the_locality_pass() {
        // gates … + terminal measurements: the restore is inserted right
        // after the last gate, i.e. *inside* the deterministic prefix,
        // so the alias-sampling classification and the identity prefix
        // layout both survive remapping
        let n = crate::sim::kernel::SWEEP_TILE_QUBITS + 2;
        let mut c = far_heavy(n);
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        let p = lower(&c, &remap_opts());
        assert!(
            p.stats().remap_windows >= 1,
            "pass must fire for this test to bite"
        );
        assert!(p.shot_plan().terminal_measurements);
        assert_eq!(p.shot_plan().measured_qubits, vec![0, 1]);
        assert_eq!(p.prefix_map(), None, "restore must sit inside the prefix");
    }
}
