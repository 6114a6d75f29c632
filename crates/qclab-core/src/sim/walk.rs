//! The per-shot noise walk: a shot's Pauli noise visited hit to hit.
//!
//! Noise strikes at *sites*, in three classes numbered in schedule
//! order: `after_gate` (one site per qubit a gate touches, in gate-qubit
//! order), `idle` (one per qubit it does not, ascending) and
//! `before_measure` (one per measurement or reset). Every site of a
//! class fires independently with the class's probability `p`, so the
//! distance from one hit to the next is geometric: with one uniform `u`
//! of the shot's `(seed, shot)` stream, `⌊ln(1−u) / ln(1−p)⌋` sites are
//! skipped. A shot therefore costs `O(hits)` draws, not `O(sites)` —
//! and the `n · ops` idle sites of a wide circuit cost nothing until one
//! fires.
//!
//! `NoisePlan` is the seed-independent half (the laws and the site
//! numbering of one program), `NoiseWalk` the per-shot cursor: the
//! next hit of each class, 24 bytes whatever the hit count. Both shot
//! engines consume the same walk — [`super::trajectory`] injects a hit
//! into the lane's state vector, [`super::frame`] XORs it into one bit
//! of the batch's planes — so a shot's hits are one function of
//! `(seed, shot)` on either.
//!
//! **Sites live on the source schedule**
//! ([`CompiledProgram::source`]): the circuit's own gates, one by one,
//! whatever fusion and the locality pass made of them. The frame engine
//! executes that schedule as it is. The state-vector engine executes the
//! fused, relabeled plan, so a lane takes its draws *ahead of execution*
//! (`NoisePlan::draw_shot` — stream order is source order, execution
//! order is not) and `Landings` says where each hit lands: a Pauli on
//! qubit `q` commutes with everything that does not touch `q`, so a hit
//! at source op `s` is applied right after the last source op at or
//! before `s` that does.
//!
//! **A shot's RNG order** (one stream, shared by both engines and
//! [`run_single_trajectory`](super::trajectory::run_single_trajectory)):
//! the first gap of each configured class, in class order; then, in
//! schedule order, at every op — for each hit of the op (`after_gate`
//! sites before `idle` sites, ascending within a class) the Pauli kind
//! of a depolarizing hit (bit- and phase-flips draw none) and the gap to
//! the class's next hit — followed by the op's own draw (a collapsing
//! measurement or reset, a frame coin); last, the terminal outcome
//! uniform. A class with `p = 0` is not configured: it draws nothing and
//! never fires.

use crate::observable::Pauli;
use crate::program::{CompiledProgram, ProgramOp};
use crate::sim::trajectory::{InjectedPauli, NoiseSpec, PauliChannel};
use qclab_math::rng::Rng;

/// A noise class — the index of its law, its site numbering and its
/// cursor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// [`NoiseSpec::after_gate`]: the qubits a gate touches.
    AfterGate = 0,
    /// [`NoiseSpec::idle`]: the qubits it does not.
    Idle = 1,
    /// [`NoiseSpec::before_measure`]: the measured or reset qubit.
    Readout = 2,
}

impl Class {
    /// The classes in draw order.
    pub(crate) const ALL: [Class; 3] = [Class::AfterGate, Class::Idle, Class::Readout];
}

/// One configured class over one schedule: its channel, `ln(1 − p)` —
/// the denominator of every gap — and the chance of a shot without a
/// hit.
#[derive(Clone, Copy, Debug)]
struct Law {
    channel: PauliChannel,
    /// `ln(1 − p)` as `ln_1p(−p)`: exact for tiny `p`, `−∞` at `p = 1`
    /// (every gap is 0: every site fires).
    ln_q: f64,
    /// `1 − (1 − p)^sites`: a first uniform at or above it skips every
    /// site of the schedule.
    any_hit: f64,
}

impl Law {
    /// The law of `channel` over a schedule with `sites` sites of its
    /// class; `None` when it can never fire.
    fn of(channel: PauliChannel, sites: u64) -> Option<Law> {
        channel.can_fire().then(|| {
            let ln_q = (-channel.probability()).ln_1p();
            Law {
                channel,
                ln_q,
                any_hit: -(sites as f64 * ln_q).exp_m1(),
            }
        })
    }

    /// Sites skipped before the next hit: one uniform through the
    /// geometric inverse CDF. The quotient is non-negative, so the
    /// saturating float→int cast is its floor; a sub-normal `p` sends it
    /// to `u64::MAX` (never, on any schedule that fits in memory).
    fn gap(&self, rng: &mut Rng) -> u64 {
        self.gap_of(rng.f64())
    }

    /// The geometric inverse CDF at the uniform `u`.
    fn gap_of(&self, u: f64) -> u64 {
        ((-u).ln_1p() / self.ln_q) as u64
    }

    /// The site of a shot's first hit: [`gap`](Self::gap), but the
    /// uniforms that skip the whole schedule — most shots' at a small
    /// `p` — are recognised by comparison and take no logarithm
    /// (`⌊ln(1−u)/ln(1−p)⌋ ≥ sites` exactly when
    /// `u ≥ 1 − (1−p)^sites`).
    fn first(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        if u >= self.any_hit {
            return u64::MAX;
        }
        self.gap_of(u)
    }

    /// The Pauli a hit injects; a depolarizing hit draws it uniformly
    /// (one widening multiply of one `u64`).
    fn kind(&self, rng: &mut Rng) -> Pauli {
        match self.channel {
            PauliChannel::BitFlip(_) => Pauli::X,
            PauliChannel::PhaseFlip(_) => Pauli::Z,
            PauliChannel::Depolarizing(_) => {
                [Pauli::X, Pauli::Y, Pauli::Z][((rng.next_u64() as u128 * 3) >> 64) as usize]
            }
        }
    }
}

/// The noise sites of a program, counted per class — what `p` is
/// multiplied by to get a shot's expected hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteCounts {
    /// Touched-qubit sites over all gates.
    pub after_gate: u64,
    /// Untouched-qubit sites over all gates.
    pub idle: u64,
    /// Measurements plus resets.
    pub readout: u64,
}

/// The per-shot noise sites of `program` by class — counted on its
/// source schedule, so every plan of one circuit reports the same.
pub fn site_counts(program: &CompiledProgram) -> SiteCounts {
    let plan = NoisePlan::new(program, &NoiseSpec::default());
    SiteCounts {
        after_gate: plan.sites(Class::AfterGate),
        idle: plan.sites(Class::Idle),
        readout: plan.sites(Class::Readout),
    }
}

/// The seed-independent half of a run's noise: the law of each class and
/// the site numbering of one program.
#[derive(Debug)]
pub(crate) struct NoisePlan {
    laws: [Option<Law>; 3],
    /// `before[c][op]` = class-`c` sites of the source ops before `op`;
    /// one entry past the last op holds the total. Op `op` owns the
    /// sites `before[c][op]..before[c][op + 1]`.
    before: [Vec<u64>; 3],
}

impl NoisePlan {
    /// Numbers the noise sites of `program`'s source schedule and fixes
    /// the laws of `noise` (validated by the caller).
    pub(crate) fn new(program: &CompiledProgram, noise: &NoiseSpec) -> NoisePlan {
        let n = program.nb_qubits() as u64;
        let ops = program.source();
        let mut before = [(); 3].map(|()| Vec::with_capacity(ops.len() + 1));
        let mut total = [0u64; 3];
        for op in ops {
            for (row, t) in before.iter_mut().zip(total) {
                row.push(t);
            }
            match op {
                ProgramOp::Gate(g) => {
                    let touched = g.qubits().len() as u64;
                    total[Class::AfterGate as usize] += touched;
                    total[Class::Idle as usize] += n - touched;
                }
                ProgramOp::Measure(_) | ProgramOp::Reset(_) => total[Class::Readout as usize] += 1,
                ProgramOp::Fence(_) | ProgramOp::Permute { .. } => {}
            }
        }
        for (row, t) in before.iter_mut().zip(total) {
            row.push(t);
        }
        NoisePlan::over(before, noise)
    }

    /// The laws of `noise` over a site numbering.
    fn over(before: [Vec<u64>; 3], noise: &NoiseSpec) -> NoisePlan {
        let channels = [noise.after_gate, noise.idle, noise.before_measure];
        let laws = std::array::from_fn(|c| {
            let sites = before[c].last().copied().unwrap_or(0);
            channels[c].and_then(|ch| Law::of(ch, sites))
        });
        NoisePlan { laws, before }
    }

    /// Ops of the numbered schedule.
    fn ops(&self) -> usize {
        self.before[0].len().saturating_sub(1)
    }

    /// Sites of `class` in one shot.
    fn sites(&self, class: Class) -> u64 {
        self.before[class as usize].last().copied().unwrap_or(0)
    }

    /// The first op at or after `op` that measures or resets a qubit —
    /// the first with a readout site; the op count if there is none.
    pub(crate) fn next_readout_op(&self, op: usize) -> usize {
        let row = &self.before[Class::Readout as usize];
        row.partition_point(|&b| b <= row[op]) - 1
    }

    /// Takes the draws of one shot in stream order, ahead of execution,
    /// as far as its last hit: starts the walk on `rng` (the shot's
    /// `(seed, shot)` stream), then visits the source ops that draw —
    /// the ops with a hit, and with `collapses` the measurements and
    /// resets on the way, each of which consumes one uniform after its
    /// own hits. Nothing here consults a state, so the cost is
    /// `O(hits + collapses)`. Past the last hit the stream holds only
    /// the uniforms of the remaining collapses, in schedule order, and a
    /// terminal block's outcome uniform: `rng` is left standing there,
    /// and the engine draws them as it reaches them.
    pub(crate) fn draw_shot(
        &self,
        program: &CompiledProgram,
        collapses: bool,
        rng: &mut Rng,
    ) -> ShotDraws {
        let source = program.source();
        let mut walk = NoiseWalk::start(self, rng);
        let mut draws = ShotDraws::default();
        let mut op = 0;
        loop {
            let hit = walk.next_op(self);
            if hit >= self.ops() {
                return draws;
            }
            let collapse = if collapses {
                self.next_readout_op(op)
            } else {
                self.ops()
            };
            op = hit.min(collapse);
            if op == hit {
                for class in Class::ALL {
                    while let Some((site, pauli)) = walk.take(self, class, op, rng) {
                        let qubit = match &source[op] {
                            ProgramOp::Gate(g) => gate_site_qubit(class, &g.qubits(), site),
                            ProgramOp::Measure(m) => m.qubit(),
                            ProgramOp::Reset(q) => *q,
                            // neither owns a site
                            ProgramOp::Fence(_) | ProgramOp::Permute { .. } => continue,
                        };
                        draws.hits.push(InjectedPauli {
                            op_index: op,
                            qubit,
                            pauli,
                        });
                    }
                }
            }
            if op == collapse {
                draws.collapses.push(rng.f64());
            }
            op += 1;
        }
    }
}

/// One shot's draws, taken ahead of execution ([`NoisePlan::draw_shot`]).
#[derive(Debug, Default)]
pub(crate) struct ShotDraws {
    /// The shot's hits in stream order — source-schedule order.
    pub(crate) hits: Vec<InjectedPauli>,
    /// The uniform of each collapsing measurement or reset up to the
    /// last hit, in schedule order (the order fusion keeps them in).
    pub(crate) collapses: Vec<f64>,
}

/// A position in an executed plan: after the first `slot` source gates
/// of op `op` (`slot = 0`: before the op; a measurement or reset counts
/// as one). Ordered the way the plan executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Landing {
    pub(crate) op: usize,
    pub(crate) slot: usize,
}

/// Where the noise hits of a program's source schedule land in the ops
/// that execute it — seed- and noise-independent, built once per plan
/// ([`CompiledProgram::landings`]).
///
/// The landing rule: a hit on qubit `q` at source op `s` is applied
/// right after the last source op at or before `s` that touches `q`
/// (the gate itself, for an after-gate hit), a readout hit right before
/// its measurement or reset. Fusion only ever moves a gate *back* over
/// ops on other qubits, and ops that share a qubit keep their order, so
/// that position exists in every plan and the Pauli, which commutes with
/// everything in between, acts exactly as it did at `s`. Landing order
/// is not stream order: a later hit can land in an earlier op.
#[derive(Debug)]
pub(crate) struct Landings {
    /// Per qubit, the source ops that touch it (ascending) with the
    /// landing right after each. Inside a fused block a landing rides
    /// forward to the end of the block when no later gate of the block
    /// touches the qubit — only a hit that truly sits between two gates
    /// of a block makes the block replay them.
    touching: Vec<Vec<(usize, Landing)>>,
    /// `members[first[op]..first[op + 1]]`: the source ops that op `op`
    /// executes, in order — what a struck block is replayed from.
    first: Vec<usize>,
    members: Vec<usize>,
}

impl Landings {
    /// The landings of `program`.
    pub(crate) fn of(program: &CompiledProgram) -> Landings {
        let (source, ops) = (program.source(), program.ops().len());
        // group the source ops by the op that executes them; within one
        // op they stay in source order, which is their order in the block
        let mut first = vec![0usize; ops + 1];
        for s in 0..source.len() {
            first[program.placed(s).op + 1] += 1;
        }
        for op in 0..ops {
            first[op + 1] += first[op];
        }
        let mut members = vec![0usize; source.len()];
        let mut fill = first.clone();
        for s in 0..source.len() {
            let op = program.placed(s).op;
            members[fill[op]] = s;
            fill[op] += 1;
        }
        let mut touching = vec![Vec::new(); program.nb_qubits()];
        for op in 0..ops {
            let block = &members[first[op]..first[op + 1]];
            let mut qubits = Vec::new();
            for (pos, &s) in block.iter().enumerate() {
                // a fence is a no-op: nothing lands on it
                if matches!(source[s], ProgramOp::Fence(_)) {
                    continue;
                }
                for q in source[s].qubits() {
                    touching[q].push((s, Landing { op, slot: pos + 1 }));
                    qubits.push(q);
                }
            }
            // the last gate of the block on each qubit: nothing after it
            // touches the qubit, so its landing rides to the block's end
            for q in qubits {
                if let Some((_, at)) = touching[q].last_mut() {
                    at.slot = block.len();
                }
            }
        }
        Landings {
            touching,
            first,
            members,
        }
    }

    /// The source ops op `op` executes, in order.
    pub(crate) fn members(&self, op: usize) -> &[usize] {
        &self.members[self.first[op]..self.first[op + 1]]
    }

    /// Where `hit` lands in `program`, the plan these landings are of.
    pub(crate) fn of_hit(&self, program: &CompiledProgram, hit: &InjectedPauli) -> Landing {
        if !matches!(program.source()[hit.op_index], ProgramOp::Gate(_)) {
            // a readout hit: right before its measurement or reset
            let op = program.placed(hit.op_index).op;
            return Landing { op, slot: 0 };
        }
        let touching = &self.touching[hit.qubit];
        match touching.partition_point(|&(s, _)| s <= hit.op_index) {
            // nothing has touched the qubit yet: before the first op
            0 => Landing { op: 0, slot: 0 },
            i => touching[i - 1].1,
        }
    }
}

/// The qubit of site `site` among a gate's sites of `class`, the gate
/// touching `touched` (gate-qubit order): the numbering both engines
/// inject by.
pub(crate) fn gate_site_qubit(class: Class, touched: &[usize], site: usize) -> usize {
    match class {
        Class::Idle => nth_untouched(touched, site),
        _ => touched[site],
    }
}

/// The qubit of idle site `j` of a gate: the `j`-th qubit, ascending,
/// that `touched` does not hold — the fixpoint of `q = j + #{t ≤ q}`,
/// reached from below in at most `touched.len()` rounds.
fn nth_untouched(touched: &[usize], j: usize) -> usize {
    let mut q = j;
    loop {
        let at = j + touched.iter().filter(|&&t| t <= q).count();
        if at == q {
            return q;
        }
        q = at;
    }
}

/// One shot's position in its noise: the site index of the next hit of
/// each class (`u64::MAX` = never).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NoiseWalk {
    next: [u64; 3],
}

impl NoiseWalk {
    /// Starts a shot's walk: the first gap of every configured class,
    /// drawn in class order.
    pub(crate) fn start(plan: &NoisePlan, rng: &mut Rng) -> NoiseWalk {
        NoiseWalk {
            next: plan
                .laws
                .map(|law| law.map_or(u64::MAX, |law| law.first(rng))),
        }
    }

    /// The op of the shot's earliest pending hit; the op count when no
    /// class has one left.
    pub(crate) fn next_op(&self, plan: &NoisePlan) -> usize {
        let mut first = plan.ops();
        for (row, &site) in plan.before.iter().zip(&self.next) {
            if row.last().is_some_and(|&total| site < total) {
                // the op whose site range holds `site`: the last one
                // with `before ≤ site`
                first = first.min(row.partition_point(|&b| b <= site) - 1);
            }
        }
        first
    }

    /// The next pending hit of `class` at `op`, if it has one: the hit
    /// site's index among the op's sites of that class and the Pauli to
    /// inject. Draws the kind and the gap to the class's next hit. Ops
    /// must be visited in schedule order from the shot's first hit on —
    /// a hit passed over would stall its class.
    pub(crate) fn take(
        &mut self,
        plan: &NoisePlan,
        class: Class,
        op: usize,
        rng: &mut Rng,
    ) -> Option<(usize, Pauli)> {
        let c = class as usize;
        let law = plan.laws[c]?;
        let site = self.next[c];
        if site >= plan.before[c][op + 1] {
            return None;
        }
        debug_assert!(site >= plan.before[c][op], "hit at an op already passed");
        let pauli = law.kind(rng);
        self.next[c] = skip(site, law.gap(rng));
        Some(((site - plan.before[c][op]) as usize, pauli))
    }
}

/// The site `gap` sites past `site`; a gap that runs off the end of the
/// address space parks the class at "never".
fn skip(site: u64, gap: u64) -> u64 {
    site.saturating_add(1).saturating_add(gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::QCircuit;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use crate::sim::trajectory::shot_rng;

    /// The numbering of `gates` one-qubit gates on an `n`-qubit register
    /// followed by `measures` measurements, without building the
    /// circuit: `gates` after-gate sites, `gates · (n − 1)` idle sites,
    /// `measures` readout sites.
    fn synthetic(n: u64, gates: u64, measures: u64, noise: &NoiseSpec) -> NoisePlan {
        let row = |per_gate: u64, per_measure: u64| -> Vec<u64> {
            (0..=gates)
                .map(|g| g * per_gate)
                .chain((1..=measures).map(|m| gates * per_gate + m * per_measure))
                .collect()
        };
        NoisePlan::over([row(1, 0), row(n - 1, 0), row(0, 1)], noise)
    }

    fn gate_noise(ch: PauliChannel) -> NoiseSpec {
        NoiseSpec {
            after_gate: Some(ch),
            ..NoiseSpec::default()
        }
    }

    fn all_certain() -> NoiseSpec {
        NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(1.0)),
            idle: Some(PauliChannel::PhaseFlip(1.0)),
            before_measure: Some(PauliChannel::BitFlip(1.0)),
        }
    }

    /// Walks `plan` hit to hit and returns the hits as (class, op, site
    /// within the op, Pauli).
    fn hits(plan: &NoisePlan, rng: &mut Rng) -> Vec<(Class, usize, usize, Pauli)> {
        let mut walk = NoiseWalk::start(plan, rng);
        let mut out = Vec::new();
        let mut op = walk.next_op(plan);
        while op < plan.ops() {
            for class in Class::ALL {
                while let Some((local, p)) = walk.take(plan, class, op, rng) {
                    out.push((class, op, local, p));
                }
            }
            let next = walk.next_op(plan);
            assert!(next > op, "a visited op kept a pending hit");
            op = next;
        }
        out
    }

    #[test]
    fn the_numbering_of_a_program_counts_touched_idle_and_readout_sites() {
        let mut c = QCircuit::new(4);
        c.push_back(Hadamard::new(2));
        c.push_back(CNOT::new(3, 0));
        c.push_back(Measurement::z(1));
        c.push_back(crate::circuit::CircuitItem::Reset(1));
        c.push_back(PauliX::new(1));
        c.push_back(Measurement::x(1));
        let unfused = crate::program::PlanOptions {
            fuse: false,
            remap: false,
            ..Default::default()
        };
        let program = crate::program::compile(&c, &unfused);
        let plan = NoisePlan::new(&program, &NoiseSpec::default());
        assert_eq!(
            plan.before[Class::AfterGate as usize],
            [0, 1, 3, 3, 3, 4, 4]
        );
        assert_eq!(plan.before[Class::Idle as usize], [0, 3, 5, 5, 5, 8, 8]);
        assert_eq!(plan.before[Class::Readout as usize], [0, 0, 0, 1, 2, 2, 3]);
        let collapses: Vec<usize> = (0..=6).map(|op| plan.next_readout_op(op)).collect();
        assert_eq!(collapses, [2, 2, 2, 3, 5, 5, 6]);
        assert_eq!(
            site_counts(&program),
            SiteCounts {
                after_gate: 4,
                idle: 8,
                readout: 3
            }
        );
        // every site of the real numbering fires under certain channels,
        // in schedule order
        let plan = NoisePlan::new(&program, &all_certain());
        let ops: Vec<usize> = hits(&plan, &mut shot_rng(1, 0))
            .iter()
            .map(|h| h.1)
            .collect();
        assert_eq!(ops, [0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 4, 4, 4, 4, 5]);
    }

    #[test]
    fn draws_taken_ahead_are_the_draws_of_a_walk_in_schedule_order() {
        // gates, a mid-circuit measurement, a reset, terminal measurements
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::x(1));
        c.push_back(TGate::new(0));
        c.push_back(crate::circuit::CircuitItem::Reset(2));
        c.push_back(RotationY::new(2, 0.4));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(2));
        // numbered on the source schedule, whichever plan is asked
        let program = crate::program::compile(&c, &crate::program::PlanOptions::default());
        assert!(program.ops().len() < program.source().len());
        let noise = NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.3)),
            idle: Some(PauliChannel::PhaseFlip(0.2)),
            before_measure: Some(PauliChannel::BitFlip(0.4)),
        };
        let plan = NoisePlan::new(&program, &noise);
        for shot in 0..200 {
            for collapses in [true, false] {
                // the stated order, lazily: per op its hits, then its own draw
                let mut rng = shot_rng(29, shot);
                let mut walk = NoiseWalk::start(&plan, &mut rng);
                let (mut hits, mut uniforms) = (Vec::new(), Vec::new());
                for (op, item) in program.source().iter().enumerate() {
                    for class in Class::ALL {
                        while let Some((site, pauli)) = walk.take(&plan, class, op, &mut rng) {
                            let qubit = match item {
                                ProgramOp::Gate(g) => gate_site_qubit(class, &g.qubits(), site),
                                other => other.qubits()[0],
                            };
                            hits.push(InjectedPauli {
                                op_index: op,
                                qubit,
                                pauli,
                            });
                        }
                    }
                    if collapses && matches!(item, ProgramOp::Measure(_) | ProgramOp::Reset(_)) {
                        uniforms.push(rng.f64());
                    }
                }
                let mut ahead = shot_rng(29, shot);
                let drawn = plan.draw_shot(&program, collapses, &mut ahead);
                assert_eq!(drawn.hits, hits, "shot {shot}");
                // the collapses up to the last hit are taken ahead, the
                // rest is what the stream holds next
                let mut taken = drawn.collapses;
                assert!(hits.is_empty() <= taken.is_empty());
                while taken.len() < uniforms.len() {
                    taken.push(ahead.f64());
                }
                assert_eq!(taken, uniforms, "shot {shot}");
                assert_eq!(
                    ahead.next_u64(),
                    rng.next_u64(),
                    "shot {shot}: stream position"
                );
            }
        }
    }

    #[test]
    fn a_hit_lands_after_the_last_op_on_its_qubit_wherever_fusion_put_it() {
        // fused: op 0 = H·T·RZ on q0, op 1 = RY·CX·RX on q1 q2
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(RotationY::new(1, 0.7));
        c.push_back(CNOT::new(1, 2));
        c.push_back(TGate::new(0));
        c.push_back(RotationX::new(1, 1.1));
        c.push_back(RotationZ::new(0, 0.4));
        c.push_back(Measurement::z(1));
        let program = crate::program::compile(&c, &crate::program::PlanOptions::default());
        assert_eq!(program.ops().len(), 3);
        let landings = Landings::of(&program);
        assert_eq!(landings.members(0), [0, 3, 5]);
        assert_eq!(landings.members(1), [1, 2, 4]);
        let land = |op_index, qubit| {
            let hit = InjectedPauli {
                op_index,
                qubit,
                pauli: Pauli::X,
            };
            let at = landings.of_hit(&program, &hit);
            (at.op, at.slot)
        };
        // after CX on its control: inside the block, RX follows on q1
        assert_eq!(land(2, 1), (1, 2));
        // after CX on its target: nothing later in the block touches q2,
        // so the hit rides to the block's end
        assert_eq!(land(2, 2), (1, 3));
        // idle on q0 while RX runs: after T, in the *earlier* op — behind
        // a lane that had already applied the CX hit in stream order
        assert_eq!(land(4, 0), (0, 2));
        assert!(land(4, 0) < land(2, 1));
        // idle on qubits nothing has touched yet: before the first op
        assert_eq!(land(0, 1), (0, 0));
        assert_eq!(land(1, 2), (0, 0));
        // after the last gate of a block, idle later, readout: boundaries
        assert_eq!(land(5, 0), (0, 3));
        assert_eq!(land(5, 1), (1, 3));
        assert_eq!(land(6, 1), (2, 0));
        // on the unfused plan every op is its own block
        let unfused = crate::program::compile(&c, &crate::program::PlanOptions::unfused());
        let landings = Landings::of(&unfused);
        let hit = InjectedPauli {
            op_index: 4,
            qubit: 0,
            pauli: Pauli::Z,
        };
        assert_eq!(landings.of_hit(&unfused, &hit), Landing { op: 3, slot: 1 });
    }

    #[test]
    fn hit_frequency_and_spacing_follow_the_geometric_law() {
        // 10⁷ sites per probability: ten shots over 10⁶ sites, so the
        // start draw and the end of a schedule are walked too
        let (gates, shots) = (1_000_000u64, 10u64);
        for p in [1e-4, 0.002, 0.3] {
            let plan = synthetic(1, gates, 0, &gate_noise(PauliChannel::BitFlip(p)));
            let sites = (gates * shots) as f64;
            let mut count = 0u64;
            // sites skipped between consecutive hits (the first from the
            // start), in quarter-mean bins plus a tail
            let bins = 8usize;
            let width = (0.25 / p).ceil() as usize;
            let mut spacing = vec![0u64; bins + 1];
            for shot in 0..shots {
                let mut at = 0usize;
                for (_, op, local, pauli) in hits(&plan, &mut shot_rng(17, shot)) {
                    assert_eq!((local, pauli), (0, Pauli::X));
                    count += 1;
                    spacing[((op - at) / width).min(bins)] += 1;
                    at = op + 1;
                }
            }
            let sigma = (sites * p * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - sites * p).abs() < 5.0 * sigma,
                "p = {p}: {count} hits over {sites} sites"
            );
            // P(gap in bin b) = q^(b·w) − q^((b+1)·w), tail q^(bins·w);
            // the one gap a shot's end cuts off is ≤ 1 % of the sample
            let q = 1.0 - p;
            let edge = |b: usize| q.powf((b * width) as f64);
            let mut stat = 0.0;
            for (b, &seen) in spacing.iter().enumerate() {
                let prob = edge(b) - if b < bins { edge(b + 1) } else { 0.0 };
                let expect = prob * count as f64;
                if expect >= 5.0 {
                    stat += (seen as f64 - expect).powi(2) / expect;
                }
            }
            let dof = bins as f64;
            assert!(
                stat < dof + 5.0 * (2.0 * dof).sqrt() + 10.0,
                "p = {p}: spacing chi-square {stat:.1} over {spacing:?}"
            );
        }
    }

    #[test]
    fn the_first_gap_is_the_gap_with_the_no_hit_shots_told_apart_early() {
        for (p, sites) in [
            (0.002, 48u64),
            (0.3, 5),
            (1e-4, 100_000),
            (1.0, 7),
            (0.5, 0),
        ] {
            let law = Law::of(PauliChannel::BitFlip(p), sites).unwrap();
            let mut missed = 0;
            for shot in 0..20_000 {
                let gap = law.gap(&mut shot_rng(31, shot));
                let first = law.first(&mut shot_rng(31, shot));
                if gap >= sites {
                    assert_eq!(first, u64::MAX, "p = {p}, {sites} sites, gap {gap}");
                    missed += 1;
                } else {
                    assert_eq!(first, gap, "p = {p}, {sites} sites");
                }
            }
            let expect = 20_000.0 * (1.0 - p).powf(sites as f64);
            assert!(
                (missed as f64 - expect).abs() < 5.0 * expect.sqrt() + 1.0,
                "p = {p}, {sites} sites: {missed} shots without a hit, expected {expect:.0}"
            );
        }
    }

    #[test]
    fn zero_probability_draws_nothing_and_never_fires() {
        let never = NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.0)),
            idle: Some(PauliChannel::BitFlip(0.0)),
            before_measure: Some(PauliChannel::PhaseFlip(0.0)),
        };
        let plan = synthetic(3, 50, 4, &never);
        assert!(plan.laws.iter().all(Option::is_none));
        let mut rng = shot_rng(1, 2);
        assert!(hits(&plan, &mut rng).is_empty());
        assert_eq!(
            rng.next_u64(),
            shot_rng(1, 2).next_u64(),
            "a draw was consumed"
        );
    }

    #[test]
    fn certain_channels_fire_at_every_site_in_draw_order() {
        let plan = synthetic(3, 40, 5, &all_certain());
        let all = hits(&plan, &mut shot_rng(3, 0));
        assert_eq!(all.len(), 40 + 40 * 2 + 5);
        // within a gate the touched site, then the idle sites ascending
        for (g, gate) in all[..120].chunks(3).enumerate() {
            assert_eq!(gate[0], (Class::AfterGate, g, 0, Pauli::X));
            assert_eq!(gate[1], (Class::Idle, g, 0, Pauli::Z));
            assert_eq!(gate[2], (Class::Idle, g, 1, Pauli::Z));
        }
        for (m, hit) in all[120..].iter().enumerate() {
            assert_eq!(*hit, (Class::Readout, 40 + m, 0, Pauli::X));
        }
    }

    #[test]
    fn subnormal_probability_saturates_instead_of_overflowing() {
        let faint = NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(5e-324)),
            idle: Some(PauliChannel::Depolarizing(5e-324)),
            before_measure: Some(PauliChannel::PhaseFlip(f64::MIN_POSITIVE)),
        };
        let plan = synthetic(2, 1000, 3, &faint);
        assert!(plan.laws.iter().all(Option::is_some));
        for shot in 0..1000 {
            let walk = NoiseWalk::start(&plan, &mut shot_rng(5, shot));
            assert_eq!(walk.next_op(&plan), plan.ops());
        }
        // a class parked at the end of the address space stays there
        assert_eq!(skip(u64::MAX - 1, 7), u64::MAX);
        assert_eq!(skip(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(skip(4, 0), 5);
    }

    #[test]
    fn a_schedule_without_sites_has_no_hits() {
        let empty = synthetic(2, 0, 0, &all_certain());
        assert_eq!(empty.ops(), 0);
        assert!(hits(&empty, &mut shot_rng(1, 1)).is_empty());
    }

    #[test]
    fn three_classes_at_three_probabilities_each_keep_their_own_rate() {
        let (n, gates, measures, shots) = (4u64, 2_000u64, 2_000u64, 200u64);
        let probs = [0.01, 0.002, 0.05];
        let noise = NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(probs[0])),
            idle: Some(PauliChannel::PhaseFlip(probs[1])),
            before_measure: Some(PauliChannel::Depolarizing(probs[2])),
        };
        let plan = synthetic(n, gates, measures, &noise);
        let sites = [gates, gates * (n - 1), measures];
        assert_eq!(Class::ALL.map(|c| plan.sites(c)), sites);
        let mut seen = [0u64; 3];
        let mut idle_qubits = [0u64; 3];
        for shot in 0..shots {
            for (class, _, local, _) in hits(&plan, &mut shot_rng(23, shot)) {
                seen[class as usize] += 1;
                if class == Class::Idle {
                    idle_qubits[local] += 1;
                }
            }
        }
        for c in 0..3 {
            let total = (sites[c] * shots) as f64;
            let sigma = (total * probs[c] * (1.0 - probs[c])).sqrt();
            assert!(
                (seen[c] as f64 - total * probs[c]).abs() < 5.0 * sigma,
                "class {c}: {} hits over {total} sites",
                seen[c]
            );
        }
        // the idle sites of a gate are hit evenly
        let each = seen[1] as f64 / 3.0;
        for &k in &idle_qubits {
            assert!(
                (k as f64 - each).abs() < 5.0 * each.sqrt(),
                "{idle_qubits:?}"
            );
        }
    }

    #[test]
    fn depolarizing_kinds_are_uniform() {
        let plan = synthetic(1, 200_000, 0, &gate_noise(PauliChannel::Depolarizing(0.3)));
        let mut kinds = [0u64; 3];
        for (_, _, _, pauli) in hits(&plan, &mut shot_rng(9, 0)) {
            kinds[match pauli {
                Pauli::X => 0,
                Pauli::Y => 1,
                Pauli::Z => 2,
                Pauli::I => panic!("a hit injected the identity"),
            }] += 1;
        }
        let each = kinds.iter().sum::<u64>() as f64 / 3.0;
        let stat: f64 = kinds
            .iter()
            .map(|&k| (k as f64 - each).powi(2) / each)
            .sum();
        // 2 dof: mean 2, sigma 2
        assert!(
            stat < 2.0 + 5.0 * 2.0 + 10.0,
            "kinds {kinds:?}: chi-square {stat:.1}"
        );
    }

    #[test]
    fn nth_untouched_skips_the_touched_qubits_in_any_order() {
        for touched in [
            vec![],
            vec![0],
            vec![3],
            vec![2, 0],
            vec![4, 1, 2],
            vec![0, 1, 2],
        ] {
            let untouched: Vec<usize> = (0..8).filter(|q| !touched.contains(q)).collect();
            for (j, &q) in untouched.iter().enumerate() {
                assert_eq!(nth_untouched(&touched, j), q, "{touched:?} site {j}");
            }
        }
    }
}
