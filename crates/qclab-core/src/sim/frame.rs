//! Pauli-frame sampling: noisy Clifford ensembles at O(poly n) per shot.
//!
//! The trajectory engine pays full state-vector cost for every noisy
//! shot. For the workloads that dominate QEC studies — Clifford gates,
//! Pauli noise channels, Z/X/Y-basis measurements and resets — that is
//! asymptotically wasteful: a Pauli error commutes through a Clifford
//! circuit as another Pauli, so the *difference* between a noisy shot
//! and the noiseless reference is itself just a Pauli operator (the
//! **error frame**). This module runs the reference circuit **once** on
//! the bit-packed [`StabilizerState`](stabilizer::StabilizerState)
//! tableau and then propagates only
//! frames per shot:
//!
//! - **Reference run** — one tableau walk of the noiseless circuit
//!   (`stabilizer::walk`, the pass [`stabilizer::run_program`] makes)
//!   records, per
//!   measurement/reset site, the reference outcome bit and — when the
//!   outcome is random — the *witness*: the
//!   anticommuting stabilizer row captured just before the collapse
//!   ([`stabilizer::StabilizerState::measure_witness`]). Multiplying a frame by the
//!   witness moves that shot onto the opposite measurement branch
//!   consistently, which is what restores independent per-shot
//!   randomness at random sites (a plain frame sampler would freeze
//!   them to the reference outcome).
//! - **Frame propagation** — a shot's frame is a pair of bits
//!   `(x, z)` per qubit. Clifford conjugation acts linearly and
//!   sign-free on those bits, so the whole engine is XOR/swap
//!   arithmetic over the primitives of the one Clifford table
//!   (`stabilizer::clifford`, `stabilizer::basis_change`): H swaps `x↔z`; S and S† both map
//!   `z ^= x`; CNOT maps `x_t ^= x_c`, `z_c ^= z_t`. Pauli gates are
//!   frame no-ops, dropped when the schedule is lowered.
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
//! gates ([`crate::program::PlanStats::is_clifford`], which reads the
//! same table); the engine
//! executes those gates one by one, so its plan is the
//! [`unfused`](crate::program::PlanOptions::unfused) one, and the lowered
//! [`FrameProgram`] is cached on it, riding the fingerprint-keyed plan
//! cache. Routing happens in [`route`](crate::sim::route::route);
//! [`Reference::NoFrames`](crate::sim::trajectory::Reference::NoFrames)
//! opts out.

use crate::error::QclabError;
use crate::observable::Pauli;
use crate::program::{CompiledProgram, ProgramOp};
use crate::sim::control::stop_or_err;
use crate::sim::guard::FRAME_LANE_BYTES;
use crate::sim::par;
use crate::sim::shots::{fan_out, merge_counts, ROUND_SHOTS};
use crate::sim::stabilizer::{self, basis_change, clifford, Prim, Prims, Site, Witness};
use crate::sim::trajectory::{shot_rng, TrajectoryConfig, TrajectoryResult};
use crate::sim::walk::{gate_site_qubit, Class, NoisePlan, NoiseWalk};
use qclab_math::rng::Rng;
use std::collections::BTreeMap;

/// One op of the lowered frame schedule, walked in lockstep with the
/// reference-run site list.
#[derive(Clone, Debug)]
enum FrameOp {
    /// A gate: its table primitives less the Paulis, plus the qubits it
    /// touches, in gate-qubit order — its after-gate noise sites (its
    /// idle sites are the rest, ascending: the trajectory engine's
    /// numbering).
    Gate {
        prims: Vec<Prim>,
        touched: Vec<usize>,
    },
    /// A measurement site with its basis change `(V†, V)`: `site`
    /// indexes the reference-run record.
    Measure {
        qubit: usize,
        change: (Prims, Prims),
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
    /// when the op stream is not frame-eligible: an op the Clifford
    /// table refuses — the circuit is not Clifford
    /// ([`PlanStats::is_clifford`](crate::program::PlanStats::is_clifford),
    /// which callers consult first), or the plan is not the
    /// [`unfused`](crate::program::PlanOptions::unfused) one: the engine
    /// executes source gates, so a fused block or a layout permutation
    /// has no frame form.
    pub(crate) fn compile(program: &CompiledProgram) -> Option<FrameProgram> {
        let n = program.nb_qubits();
        let mut ops = Vec::with_capacity(program.ops().len());
        let mut sites = 0usize;
        let mut recorded = 0usize;
        for op in program.ops() {
            match op {
                ProgramOp::Gate(g) => ops.push(FrameOp::Gate {
                    // a Pauli gate commutes with every frame up to a
                    // phase, which frames do not track: it stays a noise
                    // location with nothing to apply
                    prims: clifford(g)?
                        .iter()
                        .copied()
                        .filter(|p| !matches!(p, Prim::X(_) | Prim::Y(_) | Prim::Z(_)))
                        .collect(),
                    touched: g.qubits(),
                }),
                ProgramOp::Measure(m) => {
                    ops.push(FrameOp::Measure {
                        qubit: m.qubit(),
                        change: basis_change(m.basis(), m.qubit())?,
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

    /// Applies one table primitive, sign-free, across every lane of the
    /// batch.
    #[inline]
    fn apply(&mut self, prim: Prim) {
        let w = self.words;
        match prim {
            Prim::H(q) => {
                for i in q * w..(q + 1) * w {
                    std::mem::swap(&mut self.fx[i], &mut self.fz[i]);
                }
            }
            // S and S† coincide on a frame
            Prim::S(q) | Prim::Sdg(q) => {
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
            // frame no-ops, dropped at lowering
            Prim::X(_) | Prim::Y(_) | Prim::Z(_) => {}
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
    fn fold_witness(&mut self, witness: &Witness, mask: &[u64]) {
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
    rng: Rng,
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
            if lane.rng.bool() {
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

/// Executes one batch of `count` consecutive shots starting at absolute
/// shot index `first`: all frames advance through the schedule
/// together, one pass of word ops per primitive, and each op injects the
/// hits of the lanes queued at it. Returns the batch's flip tally plus
/// its injected-error count.
fn run_batch(
    fp: &FrameProgram,
    reference: &[Site],
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
            FrameOp::Measure {
                qubit,
                change: (vdg, v),
                site,
            } => {
                let q = *qubit;
                injected += lanes.strike(op, plan, &mut batch, |_, _| q);
                // rotate the frame into the measurement basis
                for &prim in vdg.iter() {
                    batch.apply(prim);
                }
                if let Some(witness) = &reference[*site].witness {
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
                // and back
                for &prim in v.iter() {
                    batch.apply(prim);
                }
            }
            FrameOp::Reset { qubit, site } => {
                let q = *qubit;
                injected += lanes.strike(op, plan, &mut batch, |_, _| q);
                if let Some(witness) = &reference[*site].witness {
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
/// rule, each batch tallied on its own and merged into `empty`, the
/// run's result before any shot.
pub(crate) fn run_frames(
    program: &CompiledProgram,
    fp: &FrameProgram,
    config: &TrajectoryConfig,
    empty: TrajectoryResult,
) -> Result<TrajectoryResult, QclabError> {
    let n = fp.n;
    // a batch is `shot_batch` words of 64 lanes, clipped to what a
    // fan-out round can hand it
    let round = config.shots.clamp(1, ROUND_SHOTS) as usize;
    let lanes = config.shot_batch.max(1).saturating_mul(64).min(round);
    let alive = par::width(config.kernel.allow_parallel).min(round.div_ceil(lanes));
    config.limits.check_frames(n, fp.recorded, lanes, alive)?;
    config.noise.validate()?;

    let mut run = TrajectoryResult {
        batch: lanes as u64,
        ..empty
    };
    // the reference run: the noiseless circuit once on the tableau, on
    // the stream `(seed, u64::MAX)` — outside every per-shot stream, so
    // shot results stay independent of it being consumed here
    let mut reference = Vec::new();
    let mut rng = shot_rng(config.seed, u64::MAX);
    if let Err(e) = stabilizer::walk(program, &mut rng, &config.control, |site| {
        reference.push(site)
    }) {
        // stopped during the reference run: no shot completed
        run.stopped = Some(stop_or_err(e)?);
        return Ok(run);
    }
    let plan = NoisePlan::new(program, &config.noise);
    let mut counts = FlipTally::new();
    run.stopped = fan_out(
        config,
        alive,
        lanes,
        |first, count| run_batch(fp, &reference, &plan, config, first, count),
        |count, (flips, injected)| {
            run.shots += count as u64;
            run.injected_errors += injected;
            merge_counts(&mut counts, flips);
        },
    )?;
    let record: Vec<bool> = fp
        .ops
        .iter()
        .filter_map(|op| match op {
            FrameOp::Measure { site, .. } => Some(reference[*site].bit),
            _ => None,
        })
        .collect();
    run.counts = render(counts, &record);
    Ok(run)
}
