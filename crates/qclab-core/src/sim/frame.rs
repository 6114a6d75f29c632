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
//!   `u64` word**. One pass of word ops conjugates a whole batch. A
//!   batch is [`TrajectoryConfig::shot_batch`] *words* wide (64 × as
//!   many lanes), so its set-up and its walk over the schedule are
//!   shared by thousands of shots.
//! - **Noise per hit** — every lane walks its own noise
//!   ([`super::walk`]: geometric gaps on the lane's `(seed, shot)`
//!   stream, the same walk the trajectory engine consumes) and is queued
//!   at the op of its next hit; an op touches only the lanes queued
//!   there and XORs each hit into **one bit** of a plane. A batch costs
//!   `O(ops · words + hits)`, never `O(sites · lanes)`, and results are
//!   bitwise independent of the batch width.
//! - **Tally per word** — measured words are kept as *flips* against the
//!   reference record; the lanes of a word that flipped nothing are
//!   counted with one OR + popcount, the rest keyed by their packed flip
//!   words, and a record string is rendered once per *distinct* record
//!   at the end of the run.
//!
//! A measurement site reads `outcome = reference_bit ⊕ x_frame[q]`
//! (after rotating the frame into the measurement basis); at random
//! sites a fair per-lane coin first folds the witness into the frame,
//! which toggles `x_frame[q]` and updates every other qubit the witness
//! touches. A reset folds its witness the same way, then clears the
//! frame on the reset qubit (the post-reset state is `|0⟩` regardless
//! of the incoming error, and Z on `|0⟩` is gauge).
//!
//! Eligibility is classified at lowering time on the circuit's source
//! gates ([`crate::program::PlanStats::is_clifford`]); the engine
//! executes those gates one by one, so its plan is the
//! [`unfused`](crate::program::PlanOptions::unfused) one, and the lowered
//! [`FrameProgram`] is cached on it, riding the fingerprint-keyed plan
//! cache. Routing happens in [`route`](crate::sim::trajectory::route);
//! [`Reference::NoFrames`](crate::sim::trajectory::Reference::NoFrames)
//! opts out.

use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::Basis;
use crate::observable::Pauli;
use crate::program::{CompiledProgram, ProgramOp};
use crate::sim::control::StopCause;
use crate::sim::guard::FRAME_LANE_BYTES;
use crate::sim::par;
use crate::sim::stabilizer::StabilizerState;
use crate::sim::trajectory::{
    fan_out, merge_counts, shot_rng, stop_or_err, TrajectoryConfig, ROUND_SHOTS,
};
use crate::sim::walk::{gate_site_qubit, Class, NoisePlan, NoiseWalk};
use rand::rngs::StdRng;
use rand::Rng;
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
    /// A gate: its frame conjugation plus the qubits it touches, in
    /// gate-qubit order — its after-gate noise sites (its idle sites are
    /// the rest, ascending: the trajectory engine's numbering).
    Gate {
        prims: Vec<Prim>,
        touched: Vec<usize>,
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
    /// when the op stream is not frame-eligible: the circuit is not
    /// Clifford ([`PlanStats::is_clifford`](crate::program::PlanStats::is_clifford),
    /// a property of its source gates — callers may consult the stat
    /// first and skip the walk), or the plan is not the
    /// [`unfused`](crate::program::PlanOptions::unfused) one — the engine
    /// executes source gates, so a fused block or a layout permutation
    /// has no frame form.
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
                    ops.push(FrameOp::Gate {
                        prims,
                        touched: g.qubits(),
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
                // the frame route lowers unfused, unrelabeled
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
    fn new(n: usize, words: usize) -> FrameBatch {
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

    /// Multiplies lane `lane`'s frame by `pauli` on `qubit`: one bit of
    /// each plane the Pauli has a component in.
    #[inline]
    fn strike(&mut self, qubit: usize, lane: usize, pauli: Pauli) {
        let (at, bit) = (qubit * self.words + (lane >> 6), 1u64 << (lane & 63));
        if matches!(pauli, Pauli::X | Pauli::Y) {
            self.fx[at] ^= bit;
        }
        if matches!(pauli, Pauli::Z | Pauli::Y) {
            self.fz[at] ^= bit;
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

/// What a batch holds per lane whatever the lane's hit count: its
/// `(seed, shot)` stream, its noise walk, and its link in the queue of
/// the op of its next hit.
struct Lane {
    rng: StdRng,
    walk: NoiseWalk,
    link: u32,
}

// the admission guard charges a lane by this size
const _: () = assert!(std::mem::size_of::<Lane>() as u128 == FRAME_LANE_BYTES);

/// End of a queue.
const NO_LANE: u32 = u32::MAX;

/// The lanes of one batch, queued by the op of their next noise hit:
/// `due[op]` heads the list (through [`Lane::link`]) of the lanes with a
/// hit at `op`, so an op touches exactly those.
struct Lanes {
    lanes: Vec<Lane>,
    due: Vec<u32>,
}

impl Lanes {
    /// Seeds `count` consecutive shots from `first` on, starts their
    /// walks over `plan` and queues each at its first hit. `count` is at
    /// most [`ROUND_SHOTS`], far inside the `u32` links.
    fn start(plan: &NoisePlan, ops: usize, seed: u64, first: u64, count: usize) -> Lanes {
        let mut all = Lanes {
            lanes: Vec::with_capacity(count),
            due: vec![NO_LANE; ops],
        };
        for j in 0..count {
            let mut rng = shot_rng(seed, first + j as u64);
            let walk = NoiseWalk::start(plan, &mut rng);
            all.lanes.push(Lane {
                rng,
                walk,
                link: NO_LANE,
            });
            all.queue(j as u32, plan);
        }
        all
    }

    /// Queues lane `j` at the op of its next hit, if it has one left.
    fn queue(&mut self, j: u32, plan: &NoisePlan) {
        let lane = &mut self.lanes[j as usize];
        if let Some(head) = self.due.get_mut(lane.walk.next_op(plan)) {
            lane.link = std::mem::replace(head, j);
        }
    }

    /// Injects every hit the batch has at `op` — for each queued lane
    /// its hits in draw order, each one bit of `batch` on the qubit
    /// `qubit(class, site within the op)` — requeues the lanes and
    /// returns the number of hits.
    fn strike(
        &mut self,
        op: usize,
        plan: &NoisePlan,
        batch: &mut FrameBatch,
        qubit: impl Fn(Class, usize) -> usize,
    ) -> u64 {
        let mut hits = 0;
        let mut j = std::mem::replace(&mut self.due[op], NO_LANE);
        while j != NO_LANE {
            let lane = &mut self.lanes[j as usize];
            for class in Class::ALL {
                while let Some((site, pauli)) = lane.walk.take(plan, class, op, &mut lane.rng) {
                    batch.strike(qubit(class, site), j as usize, pauli);
                    hits += 1;
                }
            }
            let next = lane.link;
            self.queue(j, plan);
            j = next;
        }
        hits
    }

    /// One fair coin per lane, packed into `mask` (bit set = flip).
    fn coins(&mut self, mask: &mut [u64]) {
        mask.fill(0);
        for (j, lane) in self.lanes.iter_mut().enumerate() {
            if lane.rng.gen::<bool>() {
                mask[j >> 6] |= 1 << (j & 63);
            }
        }
    }
}

/// A tally of records as *flips* against the reference record, packed 64
/// measured sites per word (site `s` is bit `s & 63` of word `s >> 6`);
/// the all-zero key is the reference record itself.
type FlipTally = BTreeMap<Vec<u64>, u64>;

/// Tallies the `count` lanes of a batch from its measured words
/// (`flips`, `[site][word]`). The lanes of a word that flipped no site
/// are counted with one OR over the sites and a popcount; only the
/// others are gathered into keys.
fn tally(flips: &[u64], recorded: usize, words: usize, count: usize) -> FlipTally {
    let mut counts = FlipTally::new();
    let mut key = vec![0u64; recorded.div_ceil(64)];
    let mut clean = 0u64;
    for w in 0..words {
        // the last word of a batch may hold fewer than 64 lanes
        let valid = match count - w * 64 {
            lanes @ 1..=63 => (1u64 << lanes) - 1,
            _ => !0,
        };
        let word = |site: usize| flips[site * words + w];
        let flipped = (0..recorded).fold(0, |any, site| any | word(site)) & valid;
        clean += (!flipped & valid).count_ones() as u64;
        let mut rest = flipped;
        while rest != 0 {
            let b = rest.trailing_zeros();
            rest &= rest - 1;
            key.fill(0);
            for site in 0..recorded {
                key[site >> 6] |= ((word(site) >> b) & 1) << (site & 63);
            }
            match counts.get_mut(&key[..]) {
                Some(c) => *c += 1,
                None => {
                    counts.insert(key.clone(), 1);
                }
            }
        }
    }
    if clean > 0 {
        key.fill(0);
        *counts.entry(key).or_insert(0) += clean;
    }
    counts
}

/// Renders a flip tally as measurement records, once per distinct
/// record: bit `s` of a record is the reference bit of measured site `s`
/// XOR its flip.
fn render(tally: FlipTally, reference: &[bool]) -> BTreeMap<String, u64> {
    tally
        .into_iter()
        .map(|(key, c)| {
            let record = reference
                .iter()
                .enumerate()
                .map(|(s, &bit)| {
                    if bit ^ ((key[s >> 6] >> (s & 63)) & 1 == 1) {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            (record, c)
        })
        .collect()
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

/// Executes one batch of `count` consecutive shots starting at absolute
/// shot index `first`: all frames advance through the schedule
/// together, one pass of word ops per primitive, and each op injects the
/// hits of the lanes queued at it. Returns the batch's flip tally plus
/// its injected-error count.
fn run_batch(
    fp: &FrameProgram,
    reference: &Reference,
    plan: &NoisePlan,
    config: &TrajectoryConfig,
    first: u64,
    count: usize,
) -> Result<(FlipTally, u64), QclabError> {
    let words = count.div_ceil(64);
    let mut batch = FrameBatch::new(fp.n, words);
    let mut lanes = Lanes::start(plan, fp.ops.len(), config.seed, first, count);
    let mut ticker = config.control.ticker();
    let mut coin = vec![0u64; words];
    // the measured words as flips against the reference record,
    // `[site][word]`
    let mut flips = vec![0u64; fp.recorded * words];
    let mut measured = 0usize;
    let mut injected = 0u64;
    for (op, frame_op) in fp.ops.iter().enumerate() {
        match frame_op {
            FrameOp::Gate { prims, touched } => {
                for &prim in prims {
                    batch.apply(prim);
                }
                injected += lanes.strike(op, plan, &mut batch, |class, site| {
                    gate_site_qubit(class, touched, site)
                });
            }
            FrameOp::Measure { qubit, basis, site } => {
                let q = *qubit;
                injected += lanes.strike(op, plan, &mut batch, |_, _| q);
                // rotate the frame into the measurement basis (V†)
                match basis {
                    FrameBasis::Z => {}
                    FrameBasis::X => batch.apply(Prim::H(q)),
                    FrameBasis::Y => {
                        batch.apply(Prim::S(q));
                        batch.apply(Prim::H(q));
                    }
                }
                if let Some(witness) = &reference.sites[*site].witness {
                    // random site: a fair per-lane coin folds the
                    // witness into the frame, toggling x[q] — the fold
                    // IS the outcome flip, kept consistent for every
                    // later op the witness touches
                    lanes.coins(&mut coin);
                    batch.fold_witness(witness, &coin);
                }
                // outcome = reference bit ⊕ x[q]: the X plane is the flip
                let (fx, _) = batch.plane(q);
                flips[measured * words..][..words].copy_from_slice(fx);
                measured += 1;
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
                injected += lanes.strike(op, plan, &mut batch, |_, _| q);
                if let Some(witness) = &reference.sites[*site].witness {
                    lanes.coins(&mut coin);
                    batch.fold_witness(witness, &coin);
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
    Ok((tally(&flips, fp.recorded, words, count), injected))
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
    // a batch is `shot_batch` words of 64 lanes, clipped to what a
    // fan-out round can hand it
    let round = config.shots.clamp(1, ROUND_SHOTS) as usize;
    let lanes = config.shot_batch.max(1).saturating_mul(64).min(round);
    let alive = par::width(config.kernel.allow_parallel).min(round.div_ceil(lanes));
    config.limits.check_frames(n, fp.recorded, lanes, alive)?;
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
    let plan = NoisePlan::new(program, &config.noise);
    let mut counts = FlipTally::new();
    run.stopped = fan_out(
        config,
        lanes,
        |first, count| run_batch(fp, &reference, &plan, config, first, count),
        |count, (flips, injected)| {
            run.shots += count as u64;
            run.injected += injected;
            merge_counts(&mut counts, flips);
        },
    )?;
    let record: Vec<bool> = fp
        .ops
        .iter()
        .filter_map(|op| match op {
            FrameOp::Measure { site, .. } => Some(reference.sites[*site].bit),
            _ => None,
        })
        .collect();
    run.counts = render(counts, &record);
    Ok(run)
}
