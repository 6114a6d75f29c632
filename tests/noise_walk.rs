//! A shot's noise is one walk from hit to hit over its `(seed, shot)`
//! stream (`qclab_core::sim::walk`; the law itself — hit frequency,
//! spacing, the edge probabilities — is unit-tested beside it), consumed
//! by both shot engines. What must hold of the engines:
//!
//! * **scheduling is invisible** — the batch width, the fan-out, the
//!   thread count and (dense) shared evolution never show in counts or
//!   injected-error totals, `==`, with a shot count that is not a
//!   multiple of the 64-lane word so every width ends in a partial word;
//! * **one walk, two consumers** — where a circuit keeps every shot on a
//!   computational basis state (CNOTs from `|0…0⟩` under Pauli noise), a
//!   shot's record is a function of its hits alone, so the Pauli-frame
//!   engine and the state-vector engine agree `==` at the same seed;
//! * **the edges** — a certain channel injects `sites × shots` errors and
//!   a zero-probability channel none, on either engine.

mod common;

use common::{all_noise, with_threads};
use qclab::algorithms::qec::{repetition_code_circuit, InjectedError};
use qclab::prelude::*;
use qclab_core::program;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{
    run_trajectories, run_trajectories_from, NoiseSpec, PauliChannel, Reference, ShotPath,
    TrajectoryConfig, TrajectoryResult,
};
use qclab_core::sim::walk::site_counts;
use qclab_core::{CircuitItem, PlanOptions};

/// Everything of a result that scheduling must not show in.
fn outcome(r: &TrajectoryResult) -> String {
    format!("injected {} | {:?}", r.injected_errors(), r.counts())
}

/// Runs `base` at every batch width × fan-out × thread count (× each of
/// `references`) and requires the result of the serial width-1 run. An
/// explicit `initial` state keeps a Clifford circuit off the frame engine.
fn assert_scheduling_is_invisible(
    c: &QCircuit,
    initial: Option<&CVec>,
    base: &TrajectoryConfig,
    references: &[Reference],
) {
    let run = |config: &TrajectoryConfig| match initial {
        None => run_trajectories(c, config),
        Some(v) => run_trajectories_from(c, v, config),
    };
    let fan_out = |allow_parallel| KernelConfig {
        allow_parallel,
        ..base.kernel
    };
    let golden = run(&TrajectoryConfig {
        shot_batch: 1,
        kernel: fan_out(false),
        ..base.clone()
    })
    .unwrap();
    assert_eq!(golden.total_counts(), base.shots);
    assert!(golden.injected_errors() > 0, "the grid must see hits");
    for &reference in references {
        for shot_batch in [1usize, 3, 63, 64, 65, 1000, base.shots as usize] {
            let config = |parallel| TrajectoryConfig {
                reference,
                shot_batch,
                kernel: fan_out(parallel),
                ..base.clone()
            };
            let leg = format!("{reference:?}, batch {shot_batch}");
            let serial = run(&config(false)).unwrap();
            assert_eq!(serial.path(), golden.path(), "{leg}");
            assert_eq!(outcome(&serial), outcome(&golden), "{leg}, serial");
            for threads in 1..=4 {
                let fanned = with_threads(threads, || run(&config(true))).unwrap();
                assert_eq!(
                    outcome(&fanned),
                    outcome(&golden),
                    "{leg}, {threads} threads"
                );
            }
        }
    }
}

/// Clifford, with everything the frame engine treats specially: random
/// outcomes (coins and witness folds), all three bases, a reset, a
/// fence, a mid-circuit measurement.
fn clifford_with_coins() -> QCircuit {
    let mut c = QCircuit::new(5);
    c.push_back(Hadamard::new(0));
    c.push_back(CNOT::new(0, 1));
    c.push_back(CNOT::new(1, 2));
    c.push_back(Measurement::z(1));
    c.push_back(SGate::new(2));
    c.push_back(CZ::new(2, 3));
    c.push_back(CircuitItem::Barrier(vec![0, 1, 2, 3, 4]));
    c.push_back(CircuitItem::Reset(1));
    c.push_back(Hadamard::new(4));
    c.push_back(CNOT::new(4, 1));
    c.push_back(Measurement::x(0));
    c.push_back(Measurement::y(2));
    c.push_back(Measurement::z(3));
    c.push_back(Measurement::z(1));
    c.push_back(Measurement::z(4));
    c
}

#[test]
fn frame_results_do_not_depend_on_width_fan_out_or_threads() {
    let c = clifford_with_coins();
    // 1237 = 19 × 64 + 21: at every width the run ends in a batch whose
    // last word holds 21 lanes
    let base = TrajectoryConfig {
        seed: 41,
        shots: 1237,
        noise: all_noise(0.02, 0.004, 0.03),
        ..TrajectoryConfig::default()
    };
    let path = run_trajectories(&c, &base).unwrap().path();
    assert_eq!(path, ShotPath::PauliFrame);
    assert_scheduling_is_invisible(&c, None, &base, &[Reference::Product]);
}

#[test]
fn dense_results_do_not_depend_on_width_fan_out_threads_or_fast_path() {
    // a terminal block (shared table, parked lanes) and a mid-circuit
    // measurement + reset (every lane collapses its own state)
    let mut terminal = QCircuit::new(5);
    let mut collapsing = QCircuit::new(5);
    for c in [&mut terminal, &mut collapsing] {
        for q in 0..5 {
            c.push_back(RotationY::new(q, 0.4 + 0.3 * q as f64));
        }
        for q in 0..4 {
            c.push_back(CNOT::new(q, q + 1));
        }
        c.push_back(TGate::new(2));
    }
    collapsing.push_back(Measurement::z(2));
    collapsing.push_back(CircuitItem::Reset(0));
    collapsing.push_back(RotationX::new(0, 0.9));
    for c in [&mut terminal, &mut collapsing] {
        c.push_back(Measurement::x(0));
        c.push_back(Measurement::z(1));
        c.push_back(Measurement::y(4));
    }
    for c in [&terminal, &collapsing] {
        let base = TrajectoryConfig {
            seed: 43,
            shots: 203,
            noise: all_noise(0.01, 0.003, 0.02),
            ..TrajectoryConfig::default()
        };
        let references = [Reference::Product, Reference::NoSharing];
        assert_scheduling_is_invisible(c, None, &base, &references);
    }
    // the Clifford circuit kept off the frame sampler (an explicit
    // |0…0⟩) walks the dense engine through coins' counterpart, the
    // collapses
    let base = TrajectoryConfig {
        seed: 41,
        shots: 203,
        noise: all_noise(0.02, 0.004, 0.03),
        ..TrajectoryConfig::default()
    };
    let c = clifford_with_coins();
    let zero = CVec::basis_state(1 << c.nb_qubits(), 0);
    let references = [Reference::Product, Reference::NoSharing];
    assert_scheduling_is_invisible(&c, Some(&zero), &base, &references);
}

#[test]
fn both_engines_walk_the_same_hits() {
    // CNOTs from |0…0⟩ keep every shot on a basis state under any Pauli
    // noise (up to phase), so the record is a function of the hits alone
    let c = repetition_code_circuit(5, InjectedError::None);
    for noise in [
        all_noise(0.05, 0.01, 0.02),
        NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(0.1)),
            idle: Some(PauliChannel::BitFlip(0.02)),
            before_measure: Some(PauliChannel::Depolarizing(0.05)),
        },
    ] {
        let config = |reference| TrajectoryConfig {
            seed: 47,
            shots: 1500,
            noise,
            reference,
            ..TrajectoryConfig::default()
        };
        let frame = run_trajectories(&c, &config(Reference::Product)).unwrap();
        let dense = run_trajectories(&c, &config(Reference::NoFrames)).unwrap();
        assert_eq!(frame.path(), ShotPath::PauliFrame);
        assert_ne!(dense.path(), ShotPath::PauliFrame);
        assert!(
            frame.counts().len() > 8,
            "the noise must spread the records"
        );
        assert_eq!(outcome(&frame), outcome(&dense));
    }
}

#[test]
fn certain_and_impossible_channels_are_exact_on_both_engines() {
    let c = repetition_code_circuit(5, InjectedError::None);
    let sites = site_counts(&program::compile(
        &c,
        &PlanOptions {
            fuse: false,
            remap: false,
            ..PlanOptions::default()
        },
    ));
    // 4 CNOTs on 5 qubits, 5 measurements
    assert_eq!((sites.after_gate, sites.idle, sites.readout), (8, 12, 5));
    let per_shot = sites.after_gate + sites.idle + sites.readout;
    let shots = 130u64;
    let every = |p| NoiseSpec {
        after_gate: Some(PauliChannel::BitFlip(p)),
        idle: Some(PauliChannel::PhaseFlip(p)),
        before_measure: Some(PauliChannel::Depolarizing(p)),
    };
    for reference in [Reference::Product, Reference::NoFrames] {
        let config = |noise| TrajectoryConfig {
            seed: 53,
            shots,
            noise,
            reference,
            ..TrajectoryConfig::default()
        };
        let certain = run_trajectories(&c, &config(every(1.0))).unwrap();
        assert_eq!(certain.injected_errors(), per_shot * shots, "{reference:?}");
        assert_eq!(certain.total_counts(), shots);
        let never = run_trajectories(&c, &config(every(0.0))).unwrap();
        assert_eq!(never.injected_errors(), 0, "{reference:?}");
        assert_eq!(never.counts().get("00000"), Some(&shots), "{reference:?}");
    }
}
