//! A terminal measurement block is **one draw**: a shot's record is one
//! function of (the state at the block, one uniform of the shot's
//! `(seed, shot)` stream) — measured-qubit marginal, cumulative sums,
//! bisection — whichever path pays for the table. What must hold:
//!
//! * **one function** — sharing the evolution (or not,
//!   `Reference::NoSharing`), the batch
//!   width, the fan-out and the thread count are pure scheduling:
//!   counts, injected errors and watchdog statistics are `==` across all
//!   of them, noiseless and under gate + idle + readout noise. No leg
//!   is only statistical: a lane that injected nothing holds exactly the
//!   state the shared table was built from, and draws the same uniform;
//! * **exactness** — the sampled distribution is the one the
//!   density-matrix engine computes, under gate and readout noise and
//!   for X/Y/Z-basis measurements of part of the register, and an
//!   outcome of probability zero is never drawn;
//! * **no lane is special** — a lane that never left the shared
//!   evolution reports that evolution's watchdog statistics, so the
//!   totals do not depend on how many lanes diverged;
//! * **the batch width is the width asked for**, at any register size;
//! * **the one-shot draw is the kept table's** — a run whose plan nothing
//!   keeps streams its draw, or tabulates it where its points outweigh the
//!   table, from a ground state whose opening layout move is free; a run
//!   on a held plan keeps its table; a run from an explicit `|0…0⟩` pays
//!   every move. Their counts, shots and watchdog statistics are `==`.

mod common;

use common::{all_noise, assert_distribution, gate, random_layers, with_threads, Expected};
use qclab::prelude::*;
use qclab_core::program;
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::density::{run_noisy, DensityState, NoiseModel};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::route::{route, TerminalDraw};
use qclab_core::sim::trajectory::{
    run_trajectories, run_trajectories_from, NoiseSpec, PauliChannel, Reference, ShotPath,
    TrajectoryConfig, TrajectoryResult, WatchdogConfig,
};
use qclab_core::PlanOptions;
use qclab_core::ProgramOp;
use qclab_math::bits;
use qclab_math::rng::Rng;
use qclab_testkit::prelude::*;

/// Five qubits, four measured in three bases: X on 0, Y on 2, Z on 3
/// and on 4 — which no gate touches, so its bit reads 0 with certainty
/// and half of the 16 outcomes have probability exactly zero.
fn partial_mixed_bases() -> QCircuit {
    let mut c = random_layers(5, 4, 4, 17);
    c.push_back(Measurement::x(0));
    c.push_back(Measurement::y(2));
    c.push_back(Measurement::z(3));
    c.push_back(Measurement::z(4));
    c
}

/// Everything of a result that scheduling must not show in.
fn outcome(r: &TrajectoryResult) -> String {
    format!(
        "injected {} | {:?} | {:?}",
        r.injected_errors(),
        r.norm_stats(),
        r.counts()
    )
}

/// Every way of scheduling `base`'s shots must give `base`'s result.
fn assert_scheduling_is_invisible(c: &QCircuit, base: &TrajectoryConfig, what: &str) {
    let golden = run_trajectories(c, base).unwrap();
    assert_eq!(golden.total_counts(), base.shots);
    for reference in [Reference::Product, Reference::NoSharing] {
        for shot_batch in [1usize, 3, 64] {
            let config = |allow_parallel| TrajectoryConfig {
                reference,
                shot_batch,
                kernel: KernelConfig {
                    allow_parallel,
                    ..base.kernel
                },
                ..base.clone()
            };
            let serial = run_trajectories(c, &config(false)).unwrap();
            let leg = format!("{what}: {reference:?}, batch {shot_batch}");
            assert_eq!(outcome(&serial), outcome(&golden), "{leg}, serial");
            for threads in 1..=4 {
                let fanned = with_threads(threads, || run_trajectories(c, &config(true))).unwrap();
                assert_eq!(
                    outcome(&fanned),
                    outcome(&golden),
                    "{leg}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn the_terminal_draw_is_one_function_on_every_path() {
    let c = partial_mixed_bases();
    // the short cadence makes watchdog checks fall due inside the prefix
    let base = |noise| TrajectoryConfig {
        seed: 23,
        shots: 300,
        noise,
        watchdog: WatchdogConfig {
            check_every: 8,
            ..WatchdogConfig::default()
        },
        ..TrajectoryConfig::default()
    };
    let noiseless = base(NoiseSpec::default());
    let path = run_trajectories(&c, &noiseless).unwrap().path();
    assert!(matches!(path, ShotPath::AliasSampled { .. }), "{path}");
    assert_scheduling_is_invisible(&c, &noiseless, "noiseless");

    // strong enough that lanes diverge in the prefix and at the readout
    // sites, weak enough that a good share never does
    let noisy = base(all_noise(0.01, 0.003, 0.03));
    let r = run_trajectories(&c, &noisy).unwrap();
    assert_eq!(r.path(), ShotPath::PerShot);
    // fewer errors than shots: some lanes injected one, some none
    assert!(
        0 < r.injected_errors() && r.injected_errors() < noisy.shots,
        "{} errors over {} shots: both kinds of lane must occur",
        r.injected_errors(),
        noisy.shots
    );
    assert_scheduling_is_invisible(&c, &noisy, "gate + idle + readout noise");

    // readout noise alone: the prefix is forked, the block still one draw
    let readout = base(NoiseSpec {
        before_measure: Some(PauliChannel::Depolarizing(0.1)),
        ..NoiseSpec::default()
    });
    let path = run_trajectories(&c, &readout).unwrap().path();
    assert!(matches!(path, ShotPath::Forked { .. }), "{path}");
    assert_scheduling_is_invisible(&c, &readout, "readout noise");
}

#[test]
fn windows_under_noise_end_in_the_same_draw() {
    // one qubit above the 12-qubit sweep tile: the stream holds windows,
    // which a diverged lane cuts at the ops its hits land in and the
    // shared evolution does not
    let n = 13;
    let mut c = random_layers(n, n, 2, 5);
    for q in [0, 4, 9, 12] {
        c.push_back(Measurement::z(q));
    }
    let base = TrajectoryConfig {
        seed: 4,
        shots: 24,
        noise: all_noise(0.004, 0.001, 0.02),
        ..TrajectoryConfig::default()
    };
    let golden = run_trajectories(&c, &base).unwrap();
    assert!(golden.injected_errors() > 0);
    for (reference, shot_batch) in [
        (Reference::Product, 1),
        (Reference::NoSharing, 64),
        (Reference::NoSharing, 1),
    ] {
        let r = run_trajectories(
            &c,
            &TrajectoryConfig {
                reference,
                shot_batch,
                ..base.clone()
            },
        )
        .unwrap();
        assert_eq!(
            outcome(&r),
            outcome(&golden),
            "{reference:?}, batch {shot_batch}"
        );
    }
}

#[test]
fn noisy_terminal_draws_follow_the_density_matrix_exactly() {
    let c = partial_mixed_bases();
    let (gate, readout) = (
        PauliChannel::Depolarizing(0.02),
        PauliChannel::PhaseFlip(0.05),
    );
    let measured = [0usize, 2, 3, 4];
    let n = c.nb_qubits();

    // exact reference: the gates under the channel, then at each
    // measurement its readout channel and its basis change, then the
    // diagonal over the measured qubits
    let mut gates = QCircuit::new(n);
    let mut measurements = Vec::new();
    for item in c.items() {
        match item {
            CircuitItem::Measurement(m) => measurements.push(m.clone()),
            other => {
                gates.push_back(other.clone());
            }
        }
    }
    let model = NoiseModel {
        after_gate: Some(gate.to_density_channel()),
    };
    let zero = DensityState::from_pure(&CVec::basis_state(1 << n, 0));
    let mut rho = run_noisy(&gates, &zero, &model, &ExecutionControl::none()).unwrap();
    for m in &measurements {
        rho.apply_channel(m.qubit(), &readout.to_density_channel());
        if !matches!(m.basis(), Basis::Z) {
            let vdg = m.basis().change_matrix().dagger();
            rho.apply_gate(&CustomGate::new("V†", &[m.qubit()], vdg).unwrap());
        }
    }
    let dm = rho.to_density_matrix();
    let mut exact = vec![0.0f64; 1 << measured.len()];
    for i in 0..1usize << n {
        exact[bits::gather_bits(i, &measured, n)] += dm.matrix()[(i, i)].re;
    }
    assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-12);

    let shots = 40_000u64;
    let result = run_trajectories(
        &c,
        &TrajectoryConfig {
            seed: 31,
            shots,
            noise: NoiseSpec {
                after_gate: Some(gate),
                idle: None,
                before_measure: Some(readout),
            },
            ..TrajectoryConfig::default()
        },
    )
    .unwrap();
    assert_eq!(result.path(), ShotPath::PerShot);
    assert_eq!(result.total_counts(), shots);
    assert!(result.injected_errors() > shots / 4, "lanes must diverge");

    let (mut probs, mut impossible) = (std::collections::BTreeMap::new(), 0usize);
    for (k, &p) in exact.iter().enumerate() {
        let record: String = (0..measured.len())
            .rev()
            .map(|j| if (k >> j) & 1 == 1 { '1' } else { '0' })
            .collect();
        if k & 1 == 1 {
            // the last measured qubit is never touched: its bit is 0
            let observed = *result.counts().get(&record).unwrap_or(&0);
            assert!(p.abs() < 1e-15, "outcome {record} has probability {p}");
            assert_eq!(observed, 0, "impossible outcome {record} was drawn");
            impossible += 1;
            continue;
        }
        let expected = p * shots as f64;
        assert!(expected > 5.0, "outcome {record}: expectation {expected}");
        probs.insert(record, p);
    }
    let what = "noisy terminal draws vs the density matrix";
    let dof = assert_distribution(result.counts(), Expected::Exact(&probs), what);
    assert_eq!((dof, impossible), (7, 8));
}

#[test]
fn watchdog_totals_do_not_depend_on_how_many_lanes_diverged() {
    let c = partial_mixed_bases();
    let run = |p: f64, reference| {
        run_trajectories(
            &c,
            &TrajectoryConfig {
                seed: 2,
                shots: 96,
                reference,
                noise: NoiseSpec {
                    after_gate: Some(PauliChannel::Depolarizing(p)),
                    ..NoiseSpec::default()
                },
                watchdog: WatchdogConfig {
                    check_every: 4,
                    ..WatchdogConfig::default()
                },
                ..TrajectoryConfig::default()
            },
        )
        .unwrap()
    };
    // nobody diverges, some do, everybody does (at the first gate)
    let product = Reference::Product;
    let (none, some, all) = (run(1e-12, product), run(0.02, product), run(1.0, product));
    assert_eq!(none.injected_errors(), 0);
    assert!(0 < some.injected_errors() && some.injected_errors() < all.injected_errors());
    // the plan every run executes, noisy or not: 22 gates fused into 8
    // gate ops, at a cadence of 4 two checks
    let gates = program::compile(&c, &PlanOptions::default())
        .stats()
        .gates_out as u64;
    let checks = 96 * gates.div_ceil(4);
    for (r, what) in [(&none, "none"), (&some, "some"), (&all, "all")] {
        assert_eq!(r.norm_stats().checks, checks, "{what} diverged");
        assert_eq!(r.norm_stats().renormalizations, 0, "{what} diverged");
    }
    // … which is what every lane evolving on its own reports
    assert_eq!(
        run(1e-12, Reference::NoSharing).norm_stats(),
        none.norm_stats()
    );
}

#[test]
fn the_batch_width_is_the_width_asked_for_at_any_register_size() {
    // at 17 qubits a memory cap on a quantity the engine no longer holds
    // (one state per lane) used to narrow 64 to 32 — and at 20 to 4,
    // multiplying the reference evolutions by 16
    let n = 17;
    let mut c = QCircuit::new(n);
    for q in [0, 5, 11, 16] {
        c.push_back(RotationY::new(q, 0.4 + 0.1 * q as f64));
    }
    c.push_back(CNOT::new(0, 16));
    c.push_back(CNOT::new(5, 11));
    for q in [0, 11, 16] {
        c.push_back(Measurement::z(q));
    }
    let run = |shot_batch| {
        run_trajectories(
            &c,
            &TrajectoryConfig {
                seed: 6,
                shots: 8,
                shot_batch,
                noise: NoiseSpec {
                    after_gate: Some(PauliChannel::Depolarizing(0.05)),
                    ..NoiseSpec::default()
                },
                ..TrajectoryConfig::default()
            },
        )
        .unwrap()
    };
    let (wide, serial) = (run(64), run(1));
    assert_eq!(wide.shot_batch(), 64);
    assert_eq!(serial.shot_batch(), 1);
    assert_eq!(outcome(&wide), outcome(&serial));
}

#[test]
fn wide_draws_are_one_function_at_every_thread_count() {
    // 19 qubits, above the parallel threshold: the state's fill, the
    // watchdog's norm and renormalization, and a streamed draw's outcome
    // pass run on the team. A zero tolerance renormalizes at every check,
    // so the renormalized bits reach the counts.
    let n = 19;
    let mut scrambled: Vec<usize> = (0..n).collect();
    let mut x = 0x9e37_79b9_u64;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        scrambled.swap(i, (x >> 33) as usize % (i + 1));
    }
    let config = TrajectoryConfig {
        seed: 41,
        shots: 500,
        watchdog: WatchdogConfig {
            check_every: 16,
            tol: 0.0,
        },
        ..TrajectoryConfig::default()
    };
    // every qubit in register order and 18 of them scrambled stream
    // (their tables are over the cap a plan may keep); 12 scrambled
    // draw from a 32 KiB table
    let cases = [
        ((0..n).collect::<Vec<_>>(), TerminalDraw::Streamed),
        (scrambled[..18].to_vec(), TerminalDraw::Streamed),
        (
            scrambled[..12].to_vec(),
            TerminalDraw::Table { bytes: 8 << 12 },
        ),
    ];
    for (measured, draw) in cases {
        let mut c = random_layers(n, n, 2, 29);
        for &q in &measured {
            c.push_back(Measurement::z(q));
        }
        assert_eq!(route(&c, &config, None).unwrap().draw, Some(draw));
        let golden = with_threads(1, || run_trajectories(&c, &config)).unwrap();
        assert!(golden.norm_stats().renormalizations > 0);
        for threads in [2, 4] {
            let wide = with_threads(threads, || run_trajectories(&c, &config)).unwrap();
            assert_eq!(
                outcome(&wide),
                outcome(&golden),
                "{measured:?}, {threads} threads"
            );
        }
    }
}

/// A one-shot case: a circuit on `n` qubits ending in a terminal
/// measurement block, and its shot count.
#[derive(Debug)]
struct OneShot {
    circuit: QCircuit,
    shots: u64,
}

/// A circuit on `n` qubits whose first gates keep hitting the
/// high-stride qubits 0–2 — so the locality pass adopts a layout: the
/// plan opens with a move and restores the register's own before the
/// block — then random gates, a shuffled subset of the qubits measured
/// in Z, X and Y, and a shot count on either side of the points-vs-table
/// rule: `2^(m−1)` shots weigh as much as the table of `m` measured
/// qubits.
fn one_shot(n: usize) -> impl Strategy<Value = OneShot> {
    (prop::collection::vec(gate(n), 0..=6), any::<u64>()).prop_map(move |(gates, seed)| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut circuit = QCircuit::new(n);
        for _ in 0..4 + rng.below(5) {
            let mut angle = || std::f64::consts::TAU * rng.f64();
            circuit.push_back(Hadamard::new(0));
            circuit.push_back(CNOT::new(0, 1));
            circuit.push_back(RotationX::new(1, angle()));
            circuit.push_back(CNOT::new(1, 2));
            circuit.push_back(RotationZ::new(2, angle()));
            circuit.push_back(CNOT::new(2, 0));
        }
        for g in gates {
            circuit.push_back(g);
        }
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        // half the cases measure more than a tile of outcomes
        let m = if rng.bool() {
            13 + rng.below(n - 12)
        } else {
            1 + rng.below(n)
        };
        for &q in &order[..m] {
            circuit.push_back(match rng.below(3) {
                0 => Measurement::z(q),
                1 => Measurement::x(q),
                _ => Measurement::y(q),
            });
        }
        let even = 1u64 << (m - 1);
        let shots = match rng.below(4) {
            0 => 1,
            1 => (even - 1).max(1),
            2 => even,
            _ => even + 1 + rng.below(64) as u64,
        };
        OneShot { circuit, shots }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(12)))]

    #[test]
    fn the_one_shot_draw_is_the_kept_tables_draw(
        case in prop_oneof![one_shot(13), one_shot(14), one_shot(15), one_shot(16)],
    ) {
        let OneShot { circuit: c, shots } = case;
        let n = c.nb_qubits();
        let config = TrajectoryConfig {
            seed: shots ^ 0x5eed,
            shots,
            ..TrajectoryConfig::default()
        };
        let opens = |plan: &qclab_core::program::CompiledProgram| {
            matches!(plan.ops().first(), Some(ProgramOp::Permute { .. }))
        };
        // a first sighting that nothing holds: the one-shot draw
        let one_off = run_trajectories(&c, &config).unwrap();
        // from an explicit |0…0⟩, whose table no key keeps: the same
        // rule, every layout move paid
        let zero = CVec::basis_state(1 << n, 0);
        let routed = route(&c, &config, Some(&zero)).unwrap();
        prop_assume!(opens(&routed.program));
        let m = routed.program.shot_plan().measured_qubits.len();
        let table = TerminalDraw::Table { bytes: 8 << m };
        let streams = m > 12 && shots < 1 << (m - 1);
        let expected = if streams { TerminalDraw::Streamed } else { table };
        prop_assert_eq!(routed.draw, Some(expected));
        drop(routed);
        let moved = run_trajectories_from(&c, &zero, &config).unwrap();
        // held (and resident, asked for again): the table is built and kept
        let plan = program::compile(&c, &PlanOptions::default());
        prop_assert_eq!(route(&c, &config, None).unwrap().draw, Some(table));
        let kept = run_trajectories(&c, &config).unwrap();
        let again = run_trajectories(&c, &config).unwrap();
        prop_assert!(!kept.prep_hit() && again.prep_hit());
        drop(plan);
        prop_assert_eq!(one_off.shots(), shots);
        for (r, what) in [(&moved, "explicit |0…0⟩"), (&kept, "held"), (&again, "kept")] {
            prop_assert_eq!(r.counts(), one_off.counts(), "{}", what);
            prop_assert_eq!(r.shots(), one_off.shots(), "{}", what);
            prop_assert_eq!(r.norm_stats(), one_off.norm_stats(), "{}", what);
        }
    }
}
