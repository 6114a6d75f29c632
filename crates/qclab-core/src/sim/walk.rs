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
//! [`NoisePlan`] is the seed-independent half (the laws and the site
//! numbering of one program), [`NoiseWalk`] the per-shot cursor: the
//! next hit of each class, 24 bytes whatever the hit count. Both shot
//! engines consume the same walk — [`super::trajectory`] injects a hit
//! into the lane's state vector, [`super::frame`] XORs it into one bit
//! of the batch's planes — so a shot's hits are one function of
//! `(seed, shot)` on either.
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
use crate::sim::trajectory::{NoiseSpec, PauliChannel};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

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
        let p = channel.probability();
        (p > 0.0).then(|| {
            let ln_q = (-p).ln_1p();
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
    fn gap(&self, rng: &mut StdRng) -> u64 {
        self.gap_of(rng.gen())
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
    fn first(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        if u >= self.any_hit {
            return u64::MAX;
        }
        self.gap_of(u)
    }

    /// The Pauli a hit injects; a depolarizing hit draws it uniformly
    /// (one widening multiply of one `u64`).
    fn kind(&self, rng: &mut StdRng) -> Pauli {
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

/// The per-shot noise sites of `program` by class. Noisy runs execute
/// the unfused, unrelabeled plan (noise locations live on the source
/// gates) — count on that one.
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
    /// `before[c][op]` = class-`c` sites of the ops before `op`; one
    /// entry past the last op holds the total. Op `op` owns the sites
    /// `before[c][op]..before[c][op + 1]`.
    before: [Vec<u64>; 3],
}

/// The plan of a stretch no noise strikes (the one-time prefix, a batch
/// reference): no law, so no walk over it ever consults a site.
pub(crate) static SILENT: NoisePlan = NoisePlan {
    laws: [None; 3],
    before: [Vec::new(), Vec::new(), Vec::new()],
};

impl NoisePlan {
    /// Numbers the noise sites of `program` and fixes the laws of
    /// `noise` (validated by the caller).
    pub(crate) fn new(program: &CompiledProgram, noise: &NoiseSpec) -> NoisePlan {
        let n = program.nb_qubits() as u64;
        let ops = program.ops();
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

    /// True when a gate can be struck (an `after_gate` or `idle` law is
    /// configured): no stretch of gates is deterministic.
    pub(crate) fn strikes_gates(&self) -> bool {
        self.laws[Class::AfterGate as usize].is_some() || self.laws[Class::Idle as usize].is_some()
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
    pub(crate) fn start(plan: &NoisePlan, rng: &mut StdRng) -> NoiseWalk {
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
        rng: &mut StdRng,
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
    fn hits(plan: &NoisePlan, rng: &mut StdRng) -> Vec<(Class, usize, usize, Pauli)> {
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
        let program = c.compile_with(&unfused);
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
        assert!(!plan.strikes_gates());
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
        assert!(plan.strikes_gates());
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
        // the silent plan: no law, no site table, nothing to index
        let mut rng = shot_rng(1, 1);
        let mut walk = NoiseWalk::start(&SILENT, &mut rng);
        assert_eq!(walk.next_op(&SILENT), 0);
        assert_eq!(walk.take(&SILENT, Class::Readout, 3, &mut rng), None);
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
