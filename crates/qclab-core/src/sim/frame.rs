//! Pauli-frame sampling: noisy Clifford ensembles at O(poly n) per shot.
//!
//! The trajectory engine pays full state-vector cost for every noisy
//! shot. For the workloads that dominate QEC studies — Clifford gates,
//! Pauli noise channels, Z/X/Y-basis measurements and resets — that is
//! asymptotically wasteful: a Pauli error commutes through a Clifford
//! circuit as another Pauli, so the *difference* between a noisy shot
//! and the noiseless reference is itself just a Pauli operator (the
//! **error frame**). This module runs the reference circuit **once** on
//! the bit-packed [`StabilizerState`] tableau and then propagates only
//! frames per shot:
//!
//! - **Reference run** — one tableau simulation of the noiseless
//!   circuit records, per measurement/reset site, the reference outcome
//!   bit and — when the outcome is random — the *witness*: the
//!   anticommuting stabilizer row captured just before the collapse
//!   ([`StabilizerState::measure_witness`]). Multiplying a frame by the
//!   witness moves that shot onto the opposite measurement branch
//!   consistently, which is what restores independent per-shot
//!   randomness at random sites (a plain frame sampler would freeze
//!   them to the reference outcome).
//! - **Frame propagation** — a shot's frame is a pair of bits
//!   `(x, z)` per qubit. Clifford conjugation acts linearly and
//!   sign-free on those bits (H swaps `x↔z`; S maps `z ^= x`; CNOT maps
//!   `x_t ^= x_c`, `z_c ^= z_t`; Pauli gates are frame no-ops), so the
//!   whole engine is XOR/swap arithmetic.
//! - **Bit-slicing** — frames are stored struct-of-arrays over shots:
//!   per qubit, an `x` and a `z` bit-plane holding **64 shots per
//!   `u64` word**. One pass of word ops conjugates a whole batch; noise
//!   is drawn per lane from the same schedule-independent
//!   `(seed, shot)` SplitMix64 streams as the trajectory engine, then
//!   injected branch-free as per-site XOR masks. Results are therefore
//!   bitwise independent of the batch width.
//!
//! A measurement site reads `outcome = reference_bit ⊕ x_frame[q]`
//! (after rotating the frame into the measurement basis); at random
//! sites a fair per-lane coin first folds the witness into the frame,
//! which toggles `x_frame[q]` and updates every other qubit the witness
//! touches. A reset folds its witness the same way, then clears the
//! frame on the reset qubit (the post-reset state is `|0⟩` regardless
//! of the incoming error, and Z on `|0⟩` is gauge).
//!
//! Eligibility is classified at lowering time
//! ([`crate::program::PlanStats::is_clifford`]) and the lowered
//! [`FrameProgram`] is cached on the compiled plan, riding the
//! fingerprint-keyed plan cache. Routing happens in
//! [`run_trajectories`](crate::sim::trajectory::run_trajectories);
//! [`TrajectoryConfig::frames`] opts out.

use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::Basis;
use crate::observable::Pauli;
use crate::program::{CompiledProgram, ProgramOp};
use crate::sim::control::StopCause;
use crate::sim::stabilizer::StabilizerState;
use crate::sim::trajectory::{fan_out, merge_counts, shot_rng, stop_or_err, TrajectoryConfig};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// One word-parallel frame-conjugation primitive. Every Clifford gate
/// the tableau accepts lowers to a short sequence of these (sign-free:
/// frames ignore phases, so S and S† coincide and Pauli gates vanish).
#[derive(Clone, Copy, Debug)]
enum Prim {
    /// Swap the `x` and `z` planes of a qubit.
    H(usize),
    /// `z ^= x` on a qubit (conjugation by S or S†).
    S(usize),
    /// `x_t ^= x_c`, `z_c ^= z_t`.
    Cnot(usize, usize),
}

/// Measurement basis a frame site supports (Custom never classifies as
/// Clifford, so it cannot reach the frame engine).
#[derive(Clone, Copy, Debug)]
enum FrameBasis {
    Z,
    X,
    Y,
}

/// One op of the lowered frame schedule, walked in lockstep with the
/// reference-run site list.
#[derive(Clone, Debug)]
enum FrameOp {
    /// A gate: its frame conjugation plus the qubit sets the noise
    /// model needs (`touched` in gate-qubit order, `untouched`
    /// ascending — the same draw order as the trajectory engine).
    Gate {
        prims: Vec<Prim>,
        touched: Vec<usize>,
        untouched: Vec<usize>,
    },
    /// A measurement site: `site` indexes the reference-run record.
    Measure {
        qubit: usize,
        basis: FrameBasis,
        site: usize,
    },
    /// A reset site (also consumes a reference-run record).
    Reset { qubit: usize, site: usize },
    /// Scheduling wall — one ticker step, nothing else.
    Fence,
}

/// A compiled program lowered for Pauli-frame execution. Built lazily by
/// [`CompiledProgram::frame_program`] and cached on the plan; `None`
/// when any op falls outside the Clifford+Z/X/Y-measurement family.
#[derive(Debug)]
pub struct FrameProgram {
    n: usize,
    ops: Vec<FrameOp>,
    /// Number of measurement/reset sites (length of the reference-run
    /// site list).
    sites: usize,
    /// Number of recorded (measurement) sites — the per-shot record
    /// length.
    recorded: usize,
}

impl FrameProgram {
    /// Lowers a compiled program into the frame schedule, or `None`
    /// when the op stream is not frame-eligible. The check mirrors
    /// [`PlanStats::is_clifford`](crate::program::PlanStats::is_clifford)
    /// op by op — callers may consult the stat first and skip the walk.
    pub(crate) fn compile(program: &CompiledProgram) -> Option<FrameProgram> {
        if !program.stats().is_clifford {
            return None;
        }
        let n = program.nb_qubits();
        let mut ops = Vec::with_capacity(program.ops().len());
        let mut sites = 0usize;
        let mut recorded = 0usize;
        for op in program.ops() {
            match op {
                ProgramOp::Gate(g) => {
                    let prims = lower_gate(g)?;
                    let touched = g.qubits();
                    let untouched = (0..n).filter(|q| !touched.contains(q)).collect();
                    ops.push(FrameOp::Gate {
                        prims,
                        touched,
                        untouched,
                    });
                }
                ProgramOp::Measure(m) => {
                    let basis = match m.basis() {
                        Basis::Z => FrameBasis::Z,
                        Basis::X => FrameBasis::X,
                        Basis::Y => FrameBasis::Y,
                        Basis::Custom { .. } => return None,
                    };
                    ops.push(FrameOp::Measure {
                        qubit: m.qubit(),
                        basis,
                        site: sites,
                    });
                    sites += 1;
                    recorded += 1;
                }
                ProgramOp::Reset(q) => {
                    ops.push(FrameOp::Reset {
                        qubit: *q,
                        site: sites,
                    });
                    sites += 1;
                }
                ProgramOp::Fence(_) => ops.push(FrameOp::Fence),
                // the locality pass is disabled on noisy plans, and a
                // permuted plan never classifies as Clifford anyway
                ProgramOp::Permute { .. } => return None,
            }
        }
        Some(FrameProgram {
            n,
            ops,
            sites,
            recorded,
        })
    }

    /// Register size the schedule was lowered for.
    pub fn nb_qubits(&self) -> usize {
        self.n
    }

    /// Ops in the frame schedule (one per program op).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for an empty schedule.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Measurement + reset sites the reference run records.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Recorded (measurement) sites — the per-shot record length.
    pub fn recorded(&self) -> usize {
        self.recorded
    }
}

/// The frame conjugation of one Clifford gate, or `None` when the gate
/// is outside the family. Pauli gates (and identity) commute with any
/// frame up to phase, which frames do not track — they lower to no
/// primitives but remain noise locations.
fn lower_gate(g: &Gate) -> Option<Vec<Prim>> {
    Some(match g {
        Gate::Identity(_) | Gate::PauliX(_) | Gate::PauliY(_) | Gate::PauliZ(_) => Vec::new(),
        Gate::Hadamard(q) => vec![Prim::H(*q)],
        Gate::S(q) | Gate::Sdg(q) => vec![Prim::S(*q)],
        Gate::Swap(a, b) => vec![Prim::Cnot(*a, *b), Prim::Cnot(*b, *a), Prim::Cnot(*a, *b)],
        Gate::Controlled {
            controls,
            control_states,
            target,
        } if controls.len() == 1 && control_states[0] == 1 => {
            let c = controls[0];
            match &**target {
                Gate::PauliX(t) => vec![Prim::Cnot(c, *t)],
                // CZ = H(t) · CX · H(t)
                Gate::PauliZ(t) => vec![Prim::H(*t), Prim::Cnot(c, *t), Prim::H(*t)],
                // CY = S†(t) · CX · S(t); S and S† coincide frame-wise
                Gate::PauliY(t) => vec![Prim::S(*t), Prim::Cnot(c, *t), Prim::S(*t)],
                _ => return None,
            }
        }
        _ => return None,
    })
}

/// One measurement/reset site of the reference run: the noiseless
/// outcome bit, plus the witness row when the outcome was random
/// (`None` = deterministic — every shot's randomness at that site is
/// already carried by its frame).
struct RefSite {
    bit: bool,
    witness: Option<(Vec<u64>, Vec<u64>)>,
}

/// The reference run: one tableau pass over the schedule.
struct Reference {
    sites: Vec<RefSite>,
}

/// Runs the noiseless circuit once on the stabilizer tableau, recording
/// per-site outcomes and witnesses. The reference RNG stream is derived
/// from `(seed, u64::MAX)` — outside every per-shot stream, so shot
/// results stay independent of it being consumed here.
fn reference_run(
    program: &CompiledProgram,
    config: &TrajectoryConfig,
) -> Result<Reference, QclabError> {
    let n = program.nb_qubits();
    let mut st = StabilizerState::new(n)?;
    let mut rng = shot_rng(config.seed, u64::MAX);
    let mut ticker = config.control.ticker();
    let mut sites = Vec::new();
    for op in program.ops() {
        match op {
            ProgramOp::Gate(g) => st.apply_gate(g)?,
            ProgramOp::Measure(m) => {
                let q = m.qubit();
                // rotate into the measurement basis (V†), Z-measure
                // with witness, rotate back (V) — the witness is
                // captured in the rotated picture, matching where the
                // executor folds it
                match m.basis() {
                    Basis::Z => {}
                    Basis::X => st.h(q),
                    Basis::Y => {
                        st.sdg(q);
                        st.h(q);
                    }
                    Basis::Custom { .. } => {
                        return Err(QclabError::Unavailable(
                            "custom measurement basis is not frame-eligible".into(),
                        ))
                    }
                }
                let (out, witness) = st.measure_witness(q, &mut rng);
                match m.basis() {
                    Basis::Z | Basis::Custom { .. } => {}
                    Basis::X => st.h(q),
                    Basis::Y => {
                        st.h(q);
                        st.s(q);
                    }
                }
                sites.push(RefSite {
                    bit: out.bit,
                    witness,
                });
            }
            ProgramOp::Reset(q) => {
                let (out, witness) = st.measure_witness(*q, &mut rng);
                if out.bit {
                    st.x(*q);
                }
                sites.push(RefSite {
                    bit: out.bit,
                    witness,
                });
            }
            ProgramOp::Fence(_) => {}
            ProgramOp::Permute { .. } => {
                return Err(QclabError::Unavailable(
                    "permuted plans are not frame-eligible".into(),
                ))
            }
        }
        ticker.tick()?;
    }
    Ok(Reference { sites })
}

/// One batch of bit-sliced frames: per qubit, an `x` and a `z`
/// bit-plane of `words` `u64`s, 64 shot lanes per word, flattened
/// `[qubit][word]`.
struct FrameBatch {
    words: usize,
    fx: Vec<u64>,
    fz: Vec<u64>,
}

impl FrameBatch {
    fn new(n: usize, lanes: usize) -> FrameBatch {
        let words = lanes.div_ceil(64);
        FrameBatch {
            words,
            fx: vec![0u64; n * words],
            fz: vec![0u64; n * words],
        }
    }

    #[inline]
    fn plane(&mut self, q: usize) -> (&mut [u64], &mut [u64]) {
        let r = q * self.words..(q + 1) * self.words;
        (&mut self.fx[r.clone()], &mut self.fz[r])
    }

    /// Applies one conjugation primitive across every lane of the batch.
    #[inline]
    fn apply(&mut self, prim: Prim) {
        let w = self.words;
        match prim {
            Prim::H(q) => {
                for i in q * w..(q + 1) * w {
                    std::mem::swap(&mut self.fx[i], &mut self.fz[i]);
                }
            }
            Prim::S(q) => {
                for i in q * w..(q + 1) * w {
                    self.fz[i] ^= self.fx[i];
                }
            }
            Prim::Cnot(c, t) => {
                for i in 0..w {
                    self.fx[t * w + i] ^= self.fx[c * w + i];
                    self.fz[c * w + i] ^= self.fz[t * w + i];
                }
            }
        }
    }

    /// Folds the witness row into every lane selected by `mask` (one
    /// bit per lane): frame ← frame · witness on those lanes.
    fn fold_witness(&mut self, witness: &(Vec<u64>, Vec<u64>), mask: &[u64]) {
        let w = self.words;
        for (wq, (&xw, &zw)) in witness.0.iter().zip(&witness.1).enumerate() {
            let mut bits = xw | zw;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let q = (wq << 6) | b;
                if (xw >> b) & 1 == 1 {
                    for (f, &m) in self.fx[q * w..(q + 1) * w].iter_mut().zip(mask) {
                        *f ^= m;
                    }
                }
                if (zw >> b) & 1 == 1 {
                    for (f, &m) in self.fz[q * w..(q + 1) * w].iter_mut().zip(mask) {
                        *f ^= m;
                    }
                }
            }
        }
    }
}

/// Draws one noise site (`channel` on `qubit`) for every lane and
/// injects the sampled Paulis into the batch as XOR masks. Returns the
/// number of lanes that received an error. Each lane draws exactly one
/// `f64` — fired or not — so lane streams advance identically to the
/// trajectory engine's per-site draw discipline and stay independent of
/// the batch grouping.
fn inject_site(
    batch: &mut FrameBatch,
    channel: &crate::sim::trajectory::PauliChannel,
    qubit: usize,
    rngs: &mut [StdRng],
    mx: &mut [u64],
    mz: &mut [u64],
) -> u64 {
    mx.fill(0);
    mz.fill(0);
    for (lane, rng) in rngs.iter_mut().enumerate() {
        if let Some(p) = channel.sample(rng) {
            let (w, b) = (lane >> 6, lane & 63);
            match p {
                Pauli::I => {}
                Pauli::X => mx[w] |= 1 << b,
                Pauli::Z => mz[w] |= 1 << b,
                Pauli::Y => {
                    mx[w] |= 1 << b;
                    mz[w] |= 1 << b;
                }
            }
        }
    }
    let (fx, fz) = batch.plane(qubit);
    let mut injected = 0u64;
    for i in 0..fx.len() {
        fx[i] ^= mx[i];
        fz[i] ^= mz[i];
        injected += (mx[i] | mz[i]).count_ones() as u64;
    }
    injected
}

/// The aggregate a frame run hands back to the trajectory layer, which
/// owns [`TrajectoryResult`](crate::sim::trajectory::TrajectoryResult)
/// assembly.
pub(crate) struct FrameRun {
    pub counts: BTreeMap<String, u64>,
    pub shots: u64,
    pub injected: u64,
    pub stopped: Option<StopCause>,
    pub batch: u64,
}

/// Executes one batch of `lanes` consecutive shots starting at absolute
/// shot index `first`: all frames advance through the schedule
/// together, one pass of word ops per primitive. Returns the batch's
/// record tally plus its injected-error count.
fn run_batch(
    fp: &FrameProgram,
    reference: &Reference,
    config: &TrajectoryConfig,
    first: u64,
    lanes: usize,
) -> Result<(BTreeMap<String, u64>, u64), QclabError> {
    let noise = &config.noise;
    let mut batch = FrameBatch::new(fp.n, lanes);
    let words = batch.words;
    let mut rngs: Vec<StdRng> = (0..lanes as u64)
        .map(|j| shot_rng(config.seed, first + j))
        .collect();
    let mut ticker = config.control.ticker();
    let (mut mx, mut mz) = (vec![0u64; words], vec![0u64; words]);
    // per-site outcome words, assembled into strings once at the end
    let mut outcomes: Vec<Vec<u64>> = Vec::with_capacity(fp.recorded);
    let mut injected = 0u64;
    for op in &fp.ops {
        match op {
            FrameOp::Gate {
                prims,
                touched,
                untouched,
            } => {
                for &prim in prims {
                    batch.apply(prim);
                }
                if let Some(ch) = &noise.after_gate {
                    for &q in touched {
                        injected += inject_site(&mut batch, ch, q, &mut rngs, &mut mx, &mut mz);
                    }
                }
                if let Some(ch) = &noise.idle {
                    for &q in untouched {
                        injected += inject_site(&mut batch, ch, q, &mut rngs, &mut mx, &mut mz);
                    }
                }
            }
            FrameOp::Measure { qubit, basis, site } => {
                let q = *qubit;
                if let Some(ch) = &noise.before_measure {
                    injected += inject_site(&mut batch, ch, q, &mut rngs, &mut mx, &mut mz);
                }
                // rotate the frame into the measurement basis (V†)
                match basis {
                    FrameBasis::Z => {}
                    FrameBasis::X => batch.apply(Prim::H(q)),
                    FrameBasis::Y => {
                        batch.apply(Prim::S(q));
                        batch.apply(Prim::H(q));
                    }
                }
                let site = &reference.sites[*site];
                if let Some(witness) = &site.witness {
                    // random site: a fair per-lane coin folds the
                    // witness into the frame, toggling x[q] — the fold
                    // IS the outcome flip, kept consistent for every
                    // later op the witness touches
                    flip_mask(&mut rngs, &mut mx);
                    batch.fold_witness(witness, &mx);
                }
                let (fx, _) = batch.plane(q);
                let base = if site.bit { !0u64 } else { 0u64 };
                outcomes.push(fx.iter().map(|&w| w ^ base).collect());
                // rotate back (V)
                match basis {
                    FrameBasis::Z => {}
                    FrameBasis::X => batch.apply(Prim::H(q)),
                    FrameBasis::Y => {
                        batch.apply(Prim::H(q));
                        batch.apply(Prim::S(q));
                    }
                }
            }
            FrameOp::Reset { qubit, site } => {
                let q = *qubit;
                if let Some(ch) = &noise.before_measure {
                    injected += inject_site(&mut batch, ch, q, &mut rngs, &mut mx, &mut mz);
                }
                if let Some(witness) = &reference.sites[*site].witness {
                    flip_mask(&mut rngs, &mut mx);
                    batch.fold_witness(witness, &mx);
                }
                // the reset branch correction (X on outcome 1) clears
                // the X frame; Z on |0⟩ is gauge — both planes vanish
                let (fx, fz) = batch.plane(q);
                fx.fill(0);
                fz.fill(0);
            }
            FrameOp::Fence => {}
        }
        ticker.tick()?;
    }
    // transpose the outcome words into per-lane record strings
    let mut counts = BTreeMap::new();
    for lane in 0..lanes {
        let (w, b) = (lane >> 6, lane & 63);
        let record = outcomes
            .iter()
            .map(|site| if (site[w] >> b) & 1 == 1 { '1' } else { '0' })
            .collect();
        *counts.entry(record).or_insert(0) += 1;
    }
    Ok((counts, injected))
}

/// One fair coin per lane, packed into `mask` (bit set = flip).
fn flip_mask(rngs: &mut [StdRng], mask: &mut [u64]) {
    use rand::Rng;
    mask.fill(0);
    for (lane, rng) in rngs.iter_mut().enumerate() {
        if rng.gen::<bool>() {
            mask[lane >> 6] |= 1 << (lane & 63);
        }
    }
}

/// Samples `config.shots` shots of a frame-eligible program: reference
/// tableau run, then bit-sliced frame batches through the trajectory
/// engine's [`fan_out`] — the same rounds, stop latch and partial-result
/// rule, each batch tallied on its own and merged.
pub(crate) fn run_frames(
    program: &CompiledProgram,
    fp: &FrameProgram,
    config: &TrajectoryConfig,
) -> Result<FrameRun, QclabError> {
    let n = fp.n;
    let shots = config.shots;
    let lanes = config
        .shot_batch
        .max(1)
        .min(shots.max(1).min(usize::MAX as u64) as usize);
    config.limits.check_frames(n, lanes)?;
    config.noise.validate()?;

    let mut run = FrameRun {
        counts: BTreeMap::new(),
        shots: 0,
        injected: 0,
        stopped: None,
        batch: lanes as u64,
    };
    let reference = match reference_run(program, config) {
        Ok(r) => r,
        // stopped during the one-time reference run: no shot completed
        Err(e) => {
            run.stopped = Some(stop_or_err(e)?);
            return Ok(run);
        }
    };
    run.stopped = fan_out(
        config,
        lanes,
        |first, count| run_batch(fp, &reference, config, first, count),
        |count, (counts, injected)| {
            run.shots += count as u64;
            run.injected += injected;
            merge_counts(&mut run.counts, counts);
        },
    )?;
    Ok(run)
}
