//! Seed goldens: checked-in `(circuit, seed, shots) → counts` records,
//! one per shot path, so a change to any sampled stream — RNG
//! derivation, draw order, window cuts, sampler layout — fails a test
//! instead of hiding in a changelog note. Each golden also pins the
//! injected-error total, the watchdog check count and the reported
//! [`ShotPath`](qclab_core::sim::trajectory::ShotPath), and must
//! reproduce at every batch width with the fan-out on and off (results
//! depend only on `(seed, shot)`). The records are
//! `tests/golden/seed_goldens/<SEED_CONTRACT>.txt`, one file per seed
//! contract.
//!
//! Registers are small and every branch/marginal probability sits far
//! from a uniform draw, so AVX2 and scalar hosts agree; the SIMD-off leg
//! below checks that on whichever host runs the suite.

use qclab::algorithms::ghz::ghz_circuit;
use qclab::algorithms::qec::{repetition_code_circuit, InjectedError};
use qclab::algorithms::qft::qft;
use qclab::prelude::*;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::route::BackendRequest;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, TrajectoryConfig, TrajectoryResult, WatchdogConfig,
    SEED_CONTRACT,
};
use qclab_core::CircuitItem;
use qclab_testkit::{golden, seeded_golden};

/// `path | injected | checks | record:count …` of one run.
fn describe(r: &TrajectoryResult) -> String {
    let counts: Vec<String> = r.counts().iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!(
        "{} | injected {} | checks {} | {}",
        r.path(),
        r.injected_errors(),
        r.norm_stats().checks,
        counts.join(" ")
    )
}

fn all_noise(gate: f64, idle: f64, readout: f64) -> NoiseSpec {
    NoiseSpec {
        after_gate: Some(PauliChannel::Depolarizing(gate)),
        idle: Some(PauliChannel::PhaseFlip(idle)),
        before_measure: Some(PauliChannel::BitFlip(readout)),
    }
}

/// Per-shot path, n = 5: non-Clifford gates (so the frame sampler stays
/// out) under gate + idle + readout noise, with a mid-circuit
/// measurement and a reset.
fn per_shot_n5() -> (QCircuit, TrajectoryConfig) {
    let mut c = QCircuit::new(5);
    for q in 0..5 {
        c.push_back(Hadamard::new(q));
        c.push_back(RotationY::new(q, 0.3 + 0.2 * q as f64));
    }
    for q in 0..4 {
        c.push_back(CNOT::new(q, q + 1));
    }
    c.push_back(TGate::new(2));
    c.push_back(Measurement::z(2));
    c.push_back(CRY::new(0, 3, 1.1));
    c.push_back(CircuitItem::Reset(1));
    c.push_back(RotationX::new(1, 0.7));
    c.push_back(Measurement::x(0));
    c.push_back(Measurement::z(1));
    c.push_back(Measurement::y(4));
    let config = TrajectoryConfig {
        seed: 7,
        shots: 300,
        noise: all_noise(0.03, 0.01, 0.02),
        ..TrajectoryConfig::default()
    };
    (c, config)
}

/// Per-shot path, n = 13 — one qubit above the 12-qubit sweep tile, so
/// the bytecode stream holds windows: runs of tile-resident gates
/// (qubits 1..13) broken up by gates on qubit 0. Every gate is a noise
/// site, which pins the executor's treatment of windows under noise
/// against the per-gate bits; the short watchdog cadence makes checks
/// fall due inside the runs.
fn per_shot_n13() -> (QCircuit, TrajectoryConfig) {
    let n = 13;
    let mut c = QCircuit::new(n);
    for rep in 0..3 {
        for q in 1..n {
            c.push_back(RotationY::new(q, 0.2 + 0.1 * (rep * n + q) as f64));
        }
        for q in 1..n - 1 {
            c.push_back(CNOT::new(q, q + 1));
        }
        c.push_back(RotationX::new(0, 0.5 + rep as f64));
        c.push_back(CNOT::new(0, 4 + rep));
    }
    for q in [0, 3, 7, 12] {
        c.push_back(Measurement::z(q));
    }
    let config = TrajectoryConfig {
        seed: 11,
        shots: 40,
        noise: all_noise(0.01, 0.002, 0.02),
        watchdog: WatchdogConfig {
            check_every: 8,
            ..WatchdogConfig::default()
        },
        ..TrajectoryConfig::default()
    };
    (c, config)
}

/// Fork path: a deterministic prefix, then a mid-circuit measurement, a
/// reset and X/Y-basis measurements under readout noise.
fn forked() -> (QCircuit, TrajectoryConfig) {
    let mut c = QCircuit::new(4);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationY::new(1, 0.9));
    c.push_back(CNOT::new(0, 2));
    c.push_back(CNOT::new(1, 3));
    c.push_back(Measurement::z(0));
    c.push_back(RotationX::new(2, 0.4));
    c.push_back(CircuitItem::Reset(1));
    c.push_back(Hadamard::new(1));
    c.push_back(Measurement::x(2));
    c.push_back(Measurement::y(3));
    c.push_back(Measurement::z(1));
    let config = TrajectoryConfig {
        seed: 3,
        shots: 400,
        noise: NoiseSpec {
            before_measure: Some(PauliChannel::BitFlip(0.05)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    (c, config)
}

/// Alias path: a product state through the 8-qubit QFT, half the
/// register measured.
fn alias_qft8() -> (QCircuit, TrajectoryConfig) {
    let n = 8;
    let mut c = QCircuit::new(n);
    for q in 0..n {
        c.push_back(RotationY::new(q, 0.4 + 0.3 * q as f64));
    }
    c.push_back(CircuitItem::SubCircuit {
        offset: 0,
        circuit: qft(n),
    });
    for q in [0, 2, 5, 7] {
        c.push_back(Measurement::z(q));
    }
    let config = TrajectoryConfig {
        seed: 5,
        shots: 1000,
        ..TrajectoryConfig::default()
    };
    (c, config)
}

/// Sparse-sampled path: GHZ on 30 qubits under the `auto` backend (the
/// dense guard refuses the register).
fn sparse_ghz30() -> (QCircuit, TrajectoryConfig) {
    let n = 30;
    let mut c = ghz_circuit(n);
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    let config = TrajectoryConfig {
        seed: 9,
        shots: 500,
        backend: BackendRequest::Auto,
        ..TrajectoryConfig::default()
    };
    (c, config)
}

/// Pauli-frame path: the distance-5 repetition code under bit-flip gate
/// noise and readout noise.
fn frame_rep5() -> (QCircuit, TrajectoryConfig) {
    let c = repetition_code_circuit(5, InjectedError::None);
    let config = TrajectoryConfig {
        seed: 13,
        shots: 2000,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(0.05)),
            before_measure: Some(PauliChannel::BitFlip(0.01)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    (c, config)
}

type Case = (&'static str, fn() -> (QCircuit, TrajectoryConfig));

/// The shot-path cases, in the golden's order.
const SHOT_CASES: [Case; 6] = [
    ("per_shot_n5", per_shot_n5),
    ("per_shot_n13", per_shot_n13),
    ("forked", forked),
    ("alias_qft8", alias_qft8),
    ("sparse_ghz30", sparse_ghz30),
    ("frame_rep5", frame_rep5),
];

/// One `name: row` line per case from its first leg, then a
/// `name @ leg: row` line for every leg that differs from it.
#[test]
fn shot_paths_reproduce_their_seed_goldens() {
    let mut text = String::new();
    for (name, build) in SHOT_CASES {
        let (circuit, base) = build();
        let mut legs = Vec::new();
        for shot_batch in [1usize, 3, 64] {
            for parallel in [true, false] {
                let config = TrajectoryConfig {
                    shot_batch,
                    kernel: KernelConfig {
                        allow_parallel: parallel,
                        ..base.kernel
                    },
                    ..base.clone()
                };
                legs.push((format!("batch {shot_batch}, parallel {parallel}"), config));
            }
        }
        let scalar = TrajectoryConfig {
            kernel: KernelConfig {
                allow_simd: false,
                ..base.kernel
            },
            ..base.clone()
        };
        legs.push(("simd off".into(), scalar));
        let rows: Vec<(String, String)> = legs
            .into_iter()
            .map(|(leg, config)| (leg, describe(&run_trajectories(&circuit, &config).unwrap())))
            .collect();
        let first = &rows[0].1;
        text += &format!("{name}: {first}\n");
        for (leg, row) in &rows[1..] {
            if row != first {
                text += &format!("{name} @ {leg}: {row}\n");
            }
        }
    }
    seeded_golden!("seed_goldens", SEED_CONTRACT, text);
}

/// `record=probability bits` of every branch, in branch order.
fn describe_branches(sim: &Simulation) -> String {
    sim.results()
        .iter()
        .zip(sim.probabilities())
        .map(|(r, p)| format!("{r}={:016x}", p.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Teleportation-shaped: entangle, Bell-measure, classically-controlled
/// corrections replaced by their coherent versions.
fn branching_teleport() -> QCircuit {
    let mut c = QCircuit::new(3);
    c.push_back(RotationY::new(0, 0.8));
    c.push_back(Hadamard::new(1));
    c.push_back(CNOT::new(1, 2));
    c.push_back(CNOT::new(0, 1));
    c.push_back(Hadamard::new(0));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(1));
    c.push_back(CNOT::new(1, 2));
    c.push_back(CZ::new(0, 2));
    c.push_back(Measurement::z(2));
    c
}

/// Mid-circuit X/Y-basis measurements and a reset between gates.
fn branching_mixed_bases() -> QCircuit {
    let mut c = QCircuit::new(4);
    for q in 0..4 {
        c.push_back(RotationY::new(q, 0.5 + 0.4 * q as f64));
    }
    c.push_back(CNOT::new(0, 1));
    c.push_back(CNOT::new(2, 3));
    c.push_back(Measurement::x(1));
    c.push_back(CRY::new(0, 2, 0.6));
    c.push_back(CircuitItem::Reset(3));
    c.push_back(Hadamard::new(3));
    c.push_back(Measurement::y(2));
    c.push_back(Measurement::z(3));
    c
}

/// `name: branches` per case. The scalar kernels round the same way on
/// every host and are pinned outright (`seed_branches`); the vectorized
/// kernels fuse a multiply-add, so where they run the last bit of a
/// probability may differ — the default configuration must land on the
/// scalar golden or on `seed_branches.avx2`.
#[test]
fn branch_probabilities_reproduce_their_goldens() {
    let text = |simd: bool| {
        let opts = SimOptions {
            kernel: KernelConfig {
                allow_simd: simd,
                ..KernelConfig::default()
            },
            ..SimOptions::default()
        };
        let mut text = String::new();
        for (name, build) in [
            ("teleport", branching_teleport as fn() -> QCircuit),
            ("mixed_bases", branching_mixed_bases),
        ] {
            let c = build();
            let init = CVec::basis_state(1 << c.nb_qubits(), 0);
            let sim = c.simulate_with(&init, &opts).unwrap();
            text += &format!("{name}: {}\n", describe_branches(&sim));
        }
        text
    };
    let scalar = text(false);
    golden!("seed_branches", scalar);
    let simd = text(true);
    if simd != scalar {
        golden!("seed_branches.avx2", simd);
    }
}
