//! A noisy state-vector shot runs the fused, relabeled plan — the same
//! plan a noiseless run executes — with its hits landing inside that
//! plan's ops. The oracle is the plan that needs none of it:
//! `KernelConfig { fuse: false, remap: false }` executes the source
//! gates one by one, every hit between two gates. Shot by shot, through
//! `run_single_trajectory`, the two must agree:
//!
//! * `injected` lists `==` — a shot's hits are a function of its
//!   `(seed, shot)` stream and the source schedule, not of the plan;
//! * measurement records `==` and final states within 1e-12 — fusion
//!   reassociates products, so amplitudes differ in their last bits and
//!   nothing else (a record could differ only where a uniform falls
//!   within an ulp of a probability; no case here does).
//!
//! On unitary circuits a second oracle shares no code with the lane
//! engine at all: the source gates through the public per-gate kernel,
//! each `injected` Pauli applied right after the gate its `op_index`
//! names.
//!
//! Each shape fusion makes hard is a named test; the properties at the
//! bottom draw random circuits from `tests/common` (the hardened CI job
//! deep-fuzzes them at a raised `QCLAB_PROPTEST_CASES`).

mod common;

use common::{circuit, measured_circuit, random_layers};
use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, ProgramOp};
use qclab_core::sim::kernel::{apply_gate, KernelConfig};
use qclab_core::sim::trajectory::{
    run_single_trajectory, run_trajectories, InjectedPauli, NoiseSpec, PauliChannel, Reference,
    Trajectory, TrajectoryConfig,
};
use qclab_core::{CircuitItem, Pauli};
use qclab_testkit::prelude::*;

fn noise(gate: f64, idle: f64, readout: f64) -> NoiseSpec {
    NoiseSpec {
        after_gate: Some(PauliChannel::Depolarizing(gate)),
        idle: Some(PauliChannel::PhaseFlip(idle)),
        before_measure: Some(PauliChannel::BitFlip(readout)),
    }
}

fn config(noise: NoiseSpec, kernel: KernelConfig, seed: u64) -> TrajectoryConfig {
    TrajectoryConfig {
        seed,
        noise,
        kernel,
        ..TrajectoryConfig::default()
    }
}

/// The reference path: source gates one by one, no relabeling.
fn reference() -> KernelConfig {
    KernelConfig {
        fuse: false,
        remap: false,
        ..KernelConfig::default()
    }
}

fn assert_states_close(got: &CVec, want: &CVec, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: dimension");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (a - b).norm() < 1e-12,
            "{what}: amplitude {i} is {a:?}, the reference has {b:?}"
        );
    }
}

/// Shots `0..shots` of `c` under `noise`, on the plan `kernel` lowers
/// against the reference plan. Returns the fused trajectories.
fn assert_shots_agree(
    c: &QCircuit,
    noise: NoiseSpec,
    kernel: KernelConfig,
    seed: u64,
    shots: u64,
    what: &str,
) -> Vec<Trajectory> {
    let init = CVec::basis_state(1 << c.nb_qubits(), 0);
    let (fused, plain) = (
        config(noise, kernel, seed),
        config(noise, reference(), seed),
    );
    (0..shots)
        .map(|shot| {
            let got = run_single_trajectory(c, &init, &fused, shot).unwrap();
            let want = run_single_trajectory(c, &init, &plain, shot).unwrap();
            let leg = format!("{what}, seed {seed}, shot {shot}");
            assert_eq!(got.injected, want.injected, "{leg}: injected errors");
            assert_eq!(got.record, want.record, "{leg}: record");
            assert_states_close(&got.state, &want.state, &leg);
            got
        })
        .collect()
}

/// The state of a *unitary* circuit under the hits `injected`, with none
/// of the lane engine: the source schedule through the per-gate kernel
/// entry, each Pauli right after the gate it followed, in list order.
fn replay_from_the_list(c: &QCircuit, injected: &[InjectedPauli]) -> CVec {
    let n = c.nb_qubits();
    let source = program::compile(c, &PlanOptions::unfused());
    let cfg = KernelConfig::default();
    let mut state = CVec::basis_state(1 << n, 0);
    for (s, op) in source.ops().iter().enumerate() {
        match op {
            ProgramOp::Gate(g) => apply_gate(g, &mut state, n, &cfg),
            ProgramOp::Fence(_) => {}
            other => panic!("not a unitary circuit: {other}"),
        }
        for hit in injected.iter().filter(|hit| hit.op_index == s) {
            let pauli = match hit.pauli {
                Pauli::X => PauliX::new(hit.qubit),
                Pauli::Y => PauliY::new(hit.qubit),
                Pauli::Z => PauliZ::new(hit.qubit),
                Pauli::I => continue,
            };
            apply_gate(&pauli, &mut state, n, &cfg);
        }
    }
    state
}

#[test]
fn all_three_noise_classes_on_random_layers() {
    let mut c = random_layers(6, 6, 5, 11);
    let unitary = c.clone();
    for q in 0..6 {
        c.push_back(Measurement::z(q));
    }
    let plan = program::compile(&c, &PlanOptions::default());
    assert!(plan.stats().fused_blocks >= 5, "{:?}", plan.stats());
    let noise = noise(0.01, 0.002, 0.02);
    let shots = assert_shots_agree(&c, noise, KernelConfig::default(), 3, 100, "layers");
    // the mix this test is named for: struck blocks, idle hits, readout
    // hits, and lanes with none at all
    let hits = |class: fn(&InjectedPauli, &[ProgramOp]) -> bool| {
        let source = program::compile(&c, &PlanOptions::unfused());
        shots
            .iter()
            .flat_map(|t| &t.injected)
            .filter(|hit| class(hit, source.ops()))
            .count()
    };
    let on_gate = |hit: &InjectedPauli, ops: &[ProgramOp]| match &ops[hit.op_index] {
        ProgramOp::Gate(g) => g.qubits().contains(&hit.qubit),
        _ => false,
    };
    let idle = |hit: &InjectedPauli, ops: &[ProgramOp]| match &ops[hit.op_index] {
        ProgramOp::Gate(g) => !g.qubits().contains(&hit.qubit),
        _ => false,
    };
    let readout =
        |hit: &InjectedPauli, ops: &[ProgramOp]| matches!(ops[hit.op_index], ProgramOp::Measure(_));
    assert!(hits(on_gate) > 20 && hits(idle) > 20 && hits(readout) > 5);
    assert!(shots.iter().any(|t| t.injected.is_empty()));
    // the same hits on the unitary part, against the list oracle
    let gate_noise = NoiseSpec {
        before_measure: None,
        ..noise
    };
    for t in assert_shots_agree(
        &unitary,
        gate_noise,
        KernelConfig::default(),
        3,
        30,
        "unitary",
    ) {
        assert_states_close(
            &t.state,
            &replay_from_the_list(&unitary, &t.injected),
            "list oracle",
        );
    }
}

#[test]
fn an_idle_hit_lands_in_a_block_before_an_earlier_hits_block() {
    // the fused plan is [H·T·RZ on q0] [RY·CX·RX on q1 q2]: the hit after
    // CX (source op 2) lands inside the second block, the idle hit on q0
    // at RX (source op 4) after T — in the *first* block, behind the
    // lane's cursor had it executed in stream order. Certain channels
    // fire at every site, so the shape occurs in every shot; X after
    // gates and Z while idle anticommute, so a hit applied out of order
    // on its qubit shows as a sign.
    let mut c = QCircuit::new(3);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationY::new(1, 0.7));
    c.push_back(CNOT::new(1, 2));
    c.push_back(TGate::new(0));
    c.push_back(RotationX::new(1, 1.1));
    c.push_back(RotationZ::new(0, 0.4));
    let plan = program::compile(&c, &PlanOptions::default());
    assert_eq!(plan.ops().len(), 2, "{:?}", plan.ops());
    for (gate, idle) in [(1.0, 1.0), (0.3, 0.3)] {
        let noise = NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(gate)),
            idle: Some(PauliChannel::PhaseFlip(idle)),
            before_measure: None,
        };
        let what = format!("p = {gate}");
        for t in assert_shots_agree(&c, noise, KernelConfig::default(), 5, 40, &what) {
            let oracle = replay_from_the_list(&c, &t.injected);
            assert_states_close(&t.state, &oracle, &what);
        }
    }
}

#[test]
fn a_gate_fused_back_across_a_measurement_and_a_reset_keeps_the_stream_order() {
    // T(0) and RZ(0) merge into H(0)'s block, which executes before the
    // measurement of q1 and the reset of q2 — but their hits are drawn
    // after those collapses' uniforms. A lane that drew where it executes
    // would hand the collapses the wrong uniforms.
    let mut c = QCircuit::new(3);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationY::new(1, 0.9));
    c.push_back(RotationY::new(2, 2.1));
    c.push_back(Measurement::x(1));
    c.push_back(CircuitItem::Reset(2));
    c.push_back(TGate::new(0));
    c.push_back(RotationZ::new(0, 0.3));
    c.push_back(CNOT::new(0, 1));
    c.push_back(RotationX::new(2, 0.8));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::y(1));
    c.push_back(Measurement::z(2));
    let plan = program::compile(&c, &PlanOptions::default());
    // H·T·RZ is op 0, ahead of the measurement
    assert!(matches!(&plan.ops()[0], ProgramOp::Gate(g) if g.qubits() == [0]));
    assert!(plan.shot_plan().prefix_ops >= 3, "{:?}", plan.ops());
    let mut records = std::collections::BTreeSet::new();
    for (p, seed) in [(0.2, 1), (0.05, 2), (1.0, 3)] {
        for t in assert_shots_agree(
            &c,
            noise(p, p, p),
            KernelConfig::default(),
            seed,
            60,
            "walls",
        ) {
            records.insert(t.record);
        }
    }
    assert!(records.len() > 8, "collapses must vary: {records:?}");
    // the ensemble engine takes the same draws: every scheduling of the
    // fused run gives the reference run's counts
    let base = TrajectoryConfig {
        shots: 300,
        ..config(noise(0.1, 0.05, 0.1), KernelConfig::default(), 9)
    };
    let want = run_trajectories(
        &c,
        &TrajectoryConfig {
            kernel: reference(),
            ..base.clone()
        },
    );
    let want = want.unwrap();
    for (reference, shot_batch) in [
        (Reference::Product, 64),
        (Reference::Product, 1),
        (Reference::NoSharing, 3),
    ] {
        let got = run_trajectories(
            &c,
            &TrajectoryConfig {
                reference,
                shot_batch,
                ..base.clone()
            },
        );
        let got = got.unwrap();
        assert_eq!(got.counts(), want.counts(), "{reference:?}");
        assert_eq!(got.injected_errors(), want.injected_errors());
    }
}

/// Fourteen qubits, two above the sweep tile: three sweeps of
/// unfusable controlled rotations onto the far qubit 0 (so the locality
/// pass pulls it into the tile with one transposition), rotations and a
/// ladder in the tile (so the stream holds windows).
fn far_target_sweeps() -> QCircuit {
    let n = 14;
    let mut c = QCircuit::new(n);
    for rep in 0..3 {
        for q in 2..n {
            c.push_back(RotationY::new(q, 0.3 + 0.1 * (rep * n + q) as f64));
        }
        for q in 4..10 {
            c.push_back(CRY::new(q, 0, 0.4 + 0.2 * q as f64));
        }
        for q in (2..n - 1).step_by(2) {
            c.push_back(CNOT::new(q, q + 1));
        }
    }
    c
}

#[test]
fn fourteen_qubits_with_remap_windows_and_a_single_transposition() {
    let mut c = far_target_sweeps();
    let plan = program::compile(&c, &PlanOptions::default());
    let stats = plan.stats();
    assert!(
        stats.remap_windows >= 1 && stats.remap_folds >= 1,
        "{stats:?}"
    );
    assert!(stats.fused_blocks >= 1, "{stats:?}");
    assert!(
        plan.bytecode().stream_len() < plan.ops().len(),
        "the stream must hold windows"
    );
    let gate_noise = NoiseSpec {
        before_measure: None,
        ..noise(0.004, 0.0005, 0.0)
    };
    let shots = assert_shots_agree(&c, gate_noise, KernelConfig::default(), 7, 10, "n = 14");
    assert!(shots.iter().map(|t| t.injected.len()).sum::<usize>() >= 10);
    assert_states_close(
        &shots[0].state,
        &replay_from_the_list(&c, &shots[0].injected),
        "list oracle",
    );
    // with collapses under the relabeled layout
    c.push_back(Measurement::x(0));
    c.push_back(CircuitItem::Reset(5));
    c.push_back(RotationY::new(0, 0.6));
    c.push_back(CRY::new(5, 0, 1.2));
    for q in [0, 3, 5, 13] {
        c.push_back(Measurement::z(q));
    }
    assert_shots_agree(
        &c,
        noise(0.004, 0.0005, 0.05),
        KernelConfig::default(),
        8,
        6,
        "collapses",
    );
}

#[test]
fn fusion_caps_three_and_four() {
    let mut c = random_layers(6, 6, 4, 23);
    c.push_back(Toffoli::new(0, 2, 4));
    c.push_back(Measurement::z(4));
    c.push_back(CRY::new(4, 1, 0.9));
    let unitary = random_layers(6, 6, 4, 29);
    for max_fused_qubits in [3, 4] {
        let kernel = KernelConfig {
            max_fused_qubits,
            ..KernelConfig::default()
        };
        let plan = program::compile(&unitary, &PlanOptions::from(&kernel));
        let widest = plan.ops().iter().map(|op| op.qubits().len()).max();
        assert_eq!(widest, Some(max_fused_qubits), "{:?}", plan.stats());
        let what = format!("cap {max_fused_qubits}");
        assert_shots_agree(&c, noise(0.05, 0.01, 0.05), kernel, 13, 40, &what);
        let gate_noise = NoiseSpec {
            before_measure: None,
            ..noise(0.05, 0.01, 0.0)
        };
        for t in assert_shots_agree(&unitary, gate_noise, kernel, 14, 20, &what) {
            let oracle = replay_from_the_list(&unitary, &t.injected);
            assert_states_close(&t.state, &oracle, &what);
        }
    }
}

#[test]
fn certain_channels_strike_every_block() {
    // p = 1 on every class: every site fires, every block is replayed
    // gate by gate (the cost of the unfused plan; the results exact)
    let mut c = random_layers(5, 5, 3, 31);
    let unitary = c.clone();
    c.push_back(Measurement::z(1));
    c.push_back(CircuitItem::Reset(3));
    c.push_back(RotationY::new(3, 0.5));
    for q in 0..5 {
        c.push_back(Measurement::x(q));
    }
    let sites = qclab_core::sim::walk::site_counts(&program::compile(&c, &PlanOptions::default()));
    let certain = NoiseSpec {
        after_gate: Some(PauliChannel::Depolarizing(1.0)),
        idle: Some(PauliChannel::BitFlip(1.0)),
        before_measure: Some(PauliChannel::PhaseFlip(1.0)),
    };
    for t in assert_shots_agree(&c, certain, KernelConfig::default(), 17, 12, "p = 1") {
        let per_shot = sites.after_gate + sites.idle + sites.readout;
        assert_eq!(t.injected.len() as u64, per_shot);
    }
    let gates_only = NoiseSpec {
        before_measure: None,
        ..certain
    };
    for t in assert_shots_agree(
        &unitary,
        gates_only,
        KernelConfig::default(),
        18,
        6,
        "p = 1",
    ) {
        let oracle = replay_from_the_list(&unitary, &t.injected);
        assert_states_close(&t.state, &oracle, "p = 1");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(48)))]

    /// Random circuits with mid-circuit measurements, resets and
    /// barriers under all three classes, at every fusion cap.
    #[test]
    fn fused_shots_equal_reference_shots(
        c in measured_circuit(5, 24),
        seed in 0u64..1 << 20,
        cap in 1usize..=4,
        p in prop_oneof![Just(0.02), Just(0.15), Just(1.0)],
    ) {
        let kernel = KernelConfig { max_fused_qubits: cap, ..KernelConfig::default() };
        assert_shots_agree(&c, noise(p, p / 2.0, p), kernel, seed, 3, "random measured circuit");
    }

    /// Random unitary circuits against the list oracle.
    #[test]
    fn fused_shots_equal_the_list_oracle(
        c in circuit(5, 24),
        seed in 0u64..1 << 20,
        cap in 1usize..=4,
    ) {
        let kernel = KernelConfig { max_fused_qubits: cap, ..KernelConfig::default() };
        let gate_noise = NoiseSpec { before_measure: None, ..noise(0.1, 0.05, 0.0) };
        for t in assert_shots_agree(&c, gate_noise, kernel, seed, 2, "random unitary circuit") {
            assert_states_close(&t.state, &replay_from_the_list(&c, &t.injected), "list oracle");
        }
    }
}
