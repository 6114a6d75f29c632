//! Seed goldens: checked-in `(circuit, seed, shots) → counts` records,
//! one per shot path, so a change to any sampled stream — RNG
//! derivation, draw order, window cuts, sampler layout — fails a test
//! instead of hiding in a changelog note. Each golden also pins the
//! injected-error total, the watchdog check count and the reported
//! [`ShotPath`](qclab_core::sim::trajectory::ShotPath), and must
//! reproduce at every batch width with the fan-out on and off (results
//! depend only on `(seed, shot)`).
//!
//! The goldens were generated at `f23ad2b` (PR 13). A deliberate seed
//! compatibility break replaces the affected line with the `actual`
//! value the failing assertion prints — and says so in CHANGES.md. PR 16
//! made a terminal measurement block one draw (readout sites in
//! measurement order, then one outcome uniform), which regenerated
//! `per_shot_n13`; `alias_qft8` kept its counts (a 16-outcome table was
//! cumulative already) and changed only its check count, now reported
//! per shot like every other path's. PR 19 made a shot's noise a walk
//! from hit to hit (one geometric gap per hit in place of one uniform
//! per site, `sim::walk`), which regenerated every row that configures
//! noise — `per_shot_n5`, `per_shot_n13`, `forked` (readout noise) and
//! `frame_rep5`; the noiseless rows (`alias_qft8`, `sparse_ghz30`, the
//! branch probabilities) kept their bits.
//!
//! Since then the contract is a number,
//! [`SEED_CONTRACT`](qclab_core::sim::trajectory::SEED_CONTRACT), and the
//! rows a break can move are kept **per contract** ([`NOISY_DENSE`]): a
//! break appends a generation under the new number instead of editing
//! one in place, so the table is the old/new comparison, and the test
//! refuses a bump that brings no new generation as well as a generation
//! nobody bumped for. Contract 4 made a noisy state-vector shot run the
//! fused plan: counts and injected errors of all three rows are *equal*
//! to contract 3's (hits and the RNG stream are unchanged, and no
//! uniform fell within an ulp of a boundary); what moved is what names
//! the plan — `forked`'s prefix is 2 fused ops, not 4 gates, and
//! `per_shot_n13` performs 5 watchdog checks per shot, not 10, because
//! the watchdog counts the ops it executes and there are fewer.
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

type Case = (
    &'static str,
    fn() -> (QCircuit, TrajectoryConfig),
    &'static str,
);

/// The noisy state-vector rows — `per_shot_n5`, `per_shot_n13`, `forked`
/// — by seed contract, oldest first: the rows a change to the dense shot
/// engine can move. The last generation is the one that must reproduce.
const NOISY_DENSE: [(u32, [&str; 3]); 2] = [
    (
        3,
        [
            "per-shot | injected 419 | checks 300 | 0000:57 0001:37 0010:1 0011:10 0100:21 0101:18 0110:5 0111:3 1000:53 1001:43 1010:8 1011:4 1100:19 1101:17 1110:3 1111:1",
            "per-shot | injected 96 | checks 400 | 0001:3 0010:3 0011:2 0100:4 0101:5 0110:3 1000:4 1001:2 1010:4 1011:3 1100:2 1101:2 1110:1 1111:2",
            "forked (prefix 4 ops) | injected 112 | checks 400 | 0000:33 0001:29 0010:17 0011:22 0100:37 0101:25 0110:22 0111:18 1000:25 1001:26 1010:34 1011:23 1100:23 1101:21 1110:24 1111:21",
        ],
    ),
    (
        4,
        [
            "per-shot | injected 419 | checks 300 | 0000:57 0001:37 0010:1 0011:10 0100:21 0101:18 0110:5 0111:3 1000:53 1001:43 1010:8 1011:4 1100:19 1101:17 1110:3 1111:1",
            "per-shot | injected 96 | checks 200 | 0001:3 0010:3 0011:2 0100:4 0101:5 0110:3 1000:4 1001:2 1010:4 1011:3 1100:2 1101:2 1110:1 1111:2",
            "forked (prefix 2 ops) | injected 112 | checks 400 | 0000:33 0001:29 0010:17 0011:22 0100:37 0101:25 0110:22 0111:18 1000:25 1001:26 1010:34 1011:23 1100:23 1101:21 1110:24 1111:21",
        ],
    ),
];

const CURRENT: [&str; 3] = NOISY_DENSE[NOISY_DENSE.len() - 1].1;

const SHOT_GOLDENS: [Case; 6] = [
    ("per_shot_n5", per_shot_n5, CURRENT[0]),
    ("per_shot_n13", per_shot_n13, CURRENT[1]),
    ("forked", forked, CURRENT[2]),
    (
        "alias_qft8",
        alias_qft8,
        "alias-sampled (prefix 33 ops) | injected 0 | checks 1000 | 0000:402 0001:96 0010:29 0011:15 0100:15 0101:6 0110:25 0111:33 1000:120 1001:35 1010:14 1011:3 1100:19 1101:17 1110:57 1111:114",
    ),
    (
        "sparse_ghz30",
        sparse_ghz30,
        "sparse-sampled (prefix 30 ops) | injected 0 | checks 0 | 000000000000000000000000000000:251 111111111111111111111111111111:249",
    ),
    (
        "frame_rep5",
        frame_rep5,
        "pauli-frame | injected 884 | checks 0 | 00000:1284 00001:81 00010:87 00011:12 00100:100 00101:5 00110:11 00111:7 01000:69 01001:6 01010:4 01011:1 01100:3 01101:2 10000:71 10001:75 10010:9 10011:63 10100:5 10101:10 10110:5 10111:63 11000:10 11001:6 11011:3 11100:1 11110:3 11111:4",
    ),
];

/// The goldens and [`SEED_CONTRACT`] move together: the newest
/// generation is the current contract's, and every generation differs
/// from the one before — a number nobody bumped for cannot cover new
/// rows, and a bump that moved nothing is not a break.
#[test]
fn the_noisy_dense_goldens_are_keyed_on_the_seed_contract() {
    let (newest, _) = NOISY_DENSE[NOISY_DENSE.len() - 1];
    assert_eq!(
        newest, SEED_CONTRACT,
        "SEED_CONTRACT is {SEED_CONTRACT} but the newest noisy dense goldens were recorded \
         under contract {newest}: a bump appends a generation, new goldens need a bump"
    );
    for pair in NOISY_DENSE.windows(2) {
        let ((old, old_rows), (new, new_rows)) = (pair[0], pair[1]);
        assert!(old < new, "generations {old} and {new} are out of order");
        assert_ne!(
            old_rows, new_rows,
            "contract {new} changes no golden: not a seed-contract break"
        );
    }
}

#[test]
fn shot_paths_reproduce_their_seed_goldens() {
    let mut failures = Vec::new();
    for (name, build, golden) in SHOT_GOLDENS {
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
        for (leg, config) in legs {
            let actual = describe(&run_trajectories(&circuit, &config).unwrap());
            if actual != golden {
                failures.push(format!(
                    "{name} @ {leg}\n  golden: {golden}\n  actual: {actual}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "seed goldens diverged:\n{}",
        failures.join("\n")
    );
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

/// `(name, circuit, golden, AVX2 golden)`: the scalar kernels round the
/// same way on every host and are pinned outright; the vectorized kernels
/// fuse a multiply-add, so where they run the last bit of a probability
/// may differ — the default configuration must land on one of the two.
type BranchCase = (&'static str, fn() -> QCircuit, &'static str, &'static str);

const TELEPORT_GOLDEN: &str = "000=3fcb25b5ef38cc33 001=3fa36928431ccf35 010=3fcb25b5ef38cc33 011=3fa36928431ccf35 100=3fcb25b5ef38cc33 101=3fa36928431ccf35 110=3fcb25b5ef38cc33 111=3fa36928431ccf35";

const BRANCH_GOLDENS: [BranchCase; 2] = [
    (
        "teleport",
        branching_teleport,
        TELEPORT_GOLDEN,
        TELEPORT_GOLDEN,
    ),
    (
        "mixed_bases",
        branching_mixed_bases,
        "000=3fbb8cc06f6032bf 001=3fbb8cc06f6032bf 010=3fbb8cc06f6032bf 011=3fbb8cc06f6032bf 000=3fbd844328fd758b 001=3fbd844328fd758d 010=3fbd844328fd758b 011=3fbd844328fd758d 100=3f8ac73d2a555ecd 101=3f8ac73d2a555ecd 110=3f8ac73d2a555ecd 111=3f8ac73d2a555ecd 100=3f8cb0a612bd5f2b 101=3f8cb0a612bd5f2d 110=3f8cb0a612bd5f2b 111=3f8cb0a612bd5f2d",
        "000=3fbb8cc06f6032bd 001=3fbb8cc06f6032bd 010=3fbb8cc06f6032bd 011=3fbb8cc06f6032bd 000=3fbd844328fd758a 001=3fbd844328fd758a 010=3fbd844328fd758c 011=3fbd844328fd758c 100=3f8ac73d2a555ecd 101=3f8ac73d2a555ecd 110=3f8ac73d2a555ecd 111=3f8ac73d2a555ecd 100=3f8cb0a612bd5f2b 101=3f8cb0a612bd5f2d 110=3f8cb0a612bd5f2b 111=3f8cb0a612bd5f2d",
    ),
];

#[test]
fn branch_probabilities_reproduce_their_goldens() {
    let mut failures = Vec::new();
    for (name, build, golden, golden_avx2) in BRANCH_GOLDENS {
        let c = build();
        let init = CVec::basis_state(1 << c.nb_qubits(), 0);
        for simd in [true, false] {
            let opts = SimOptions {
                kernel: KernelConfig {
                    allow_simd: simd,
                    ..KernelConfig::default()
                },
                ..SimOptions::default()
            };
            let actual = describe_branches(&c.simulate_with(&init, &opts).unwrap());
            if actual != golden && !(simd && actual == golden_avx2) {
                failures.push(format!(
                    "{name} @ simd {simd}\n  golden: {golden}\n  actual: {actual}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "branch-probability goldens diverged:\n{}",
        failures.join("\n")
    );
}
