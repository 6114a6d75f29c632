//! Cross-validation of the trajectory fault-injection engine against the
//! two exact references in the workspace:
//!
//! * the **pure state-vector simulator** — noiseless trajectories must
//!   reproduce its branch probabilities (statistically for counts,
//!   exactly for single shots, which `backend_equivalence.rs` pins down
//!   as the fourth leg of the differential oracle), and
//! * the **density-matrix simulator** — noisy trajectory averages must
//!   converge to the exact channel evolution at the `O(1/√shots)`
//!   Monte-Carlo rate.
//!
//! Plus the headline robustness guarantee: a 20-qubit noisy trajectory
//! run completes where the density backend (which would need a
//! 2^40-entry matrix) is refused by the resource guard — and every
//! oversized or malformed request comes back as an error value, never
//! a panic or abort.

use qclab::prelude::*;
use qclab_algorithms::ghz_circuit;
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::density::{DensityState, NoiseModel};
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::trajectory::{
    run_trajectories, run_trajectories_from, NoiseSpec, PauliChannel, TrajectoryConfig,
};
use qclab_core::Observable;

/// Builds the n-qubit observable `Z_q` (identity elsewhere).
fn z_on(n: usize, q: usize) -> Observable {
    let s: String = (0..n).map(|i| if i == q { 'Z' } else { 'I' }).collect();
    Observable::new(n).term(1.0, &s)
}

/// A small entangling workload: H/rotation layer plus a CNOT chain.
fn workload(n: usize) -> QCircuit {
    let mut c = QCircuit::new(n);
    for q in 0..n {
        c.push_back(Hadamard::new(q));
        c.push_back(RotationY::new(q, 0.3 + 0.2 * q as f64));
    }
    for q in 0..n - 1 {
        c.push_back(CNOT::new(q, q + 1));
    }
    c
}

#[test]
fn noiseless_trajectory_counts_match_simulation_probabilities() {
    let mut c = QCircuit::new(2);
    c.push_back(Hadamard::new(0));
    c.push_back(CNOT::new(0, 1));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(1));

    let sim = c.simulate(&CVec::basis_state(4, 0)).unwrap();
    let shots = 4096u64;
    let result = run_trajectories(
        &c,
        &TrajectoryConfig {
            shots,
            seed: 13,
            ..TrajectoryConfig::default()
        },
    )
    .unwrap();

    assert_eq!(result.total_counts(), shots);
    // every sampled record is a real branch, at its exact probability
    // up to ~4σ of binomial sampling noise
    for (record, &count) in result.counts() {
        let idx = sim
            .results()
            .iter()
            .position(|r| r == record)
            .unwrap_or_else(|| panic!("record '{record}' is not a simulation branch"));
        let p = sim.probabilities()[idx];
        let sigma = (p * (1.0 - p) / shots as f64).sqrt();
        let freq = count as f64 / shots as f64;
        assert!(
            (freq - p).abs() < 4.0 * sigma + 1e-9,
            "'{record}': sampled {freq} vs exact {p}"
        );
    }
}

#[test]
fn noisy_trajectory_expectations_converge_to_density_evolution() {
    let n = 3;
    let c = workload(n);
    let p = 0.05;
    let channel = PauliChannel::Depolarizing(p);

    // exact reference: the density-matrix channel evolution
    let rho = qclab_core::sim::density::run_noisy(
        &c,
        &DensityState::from_pure(&CVec::basis_state(1 << n, 0)),
        &NoiseModel {
            after_gate: Some(channel.to_density_channel()),
        },
        &ExecutionControl::none(),
    )
    .unwrap();

    // Monte-Carlo estimate over trajectories of the same channel
    let shots = 20_000u64;
    let result = run_trajectories(
        &c,
        &TrajectoryConfig {
            shots,
            seed: 99,
            noise: NoiseSpec {
                after_gate: Some(channel),
                ..NoiseSpec::default()
            },
            observables: (0..n).map(|q| z_on(n, q)).collect(),
            ..TrajectoryConfig::default()
        },
    )
    .unwrap();

    assert!(result.injected_errors() > 0, "p = 0.05 must inject errors");
    for q in 0..n {
        let (p0, p1) = rho.measure_probabilities(q);
        let exact = p0 - p1; // ⟨Z_q⟩ = P(0) − P(1)
        let sampled = result.expectations()[q];
        // ⟨Z⟩ estimates of ±1-bounded samples have σ ≤ 1/√shots ≈ 0.007
        assert!(
            (sampled - exact).abs() < 0.03,
            "qubit {q}: trajectory ⟨Z⟩ = {sampled} vs density ⟨Z⟩ = {exact}"
        );
    }
}

#[test]
fn depolarizing_strength_shrinks_expectations_monotonically() {
    // stronger noise must contract ⟨Z⟩ toward the maximally mixed value
    let n = 2;
    let c = workload(n);
    let magnitude = |p: f64| -> f64 {
        let result = run_trajectories(
            &c,
            &TrajectoryConfig {
                shots: 6000,
                seed: 7,
                noise: NoiseSpec {
                    after_gate: (p > 0.0).then_some(PauliChannel::Depolarizing(p)),
                    ..NoiseSpec::default()
                },
                observables: vec![z_on(n, 0)],
                ..TrajectoryConfig::default()
            },
        )
        .unwrap();
        result.expectations()[0].abs()
    };
    let clean = magnitude(0.0);
    let noisy = magnitude(0.2);
    let very_noisy = magnitude(0.6);
    assert!(clean > noisy + 0.05, "clean {clean} vs noisy {noisy}");
    assert!(
        noisy > very_noisy,
        "noisy {noisy} vs very noisy {very_noisy}"
    );
}

#[test]
fn twenty_qubit_noisy_trajectories_run_where_density_cannot() {
    let n = 20;
    // the density backend would need a 2^40-amplitude matrix (16 TiB):
    // the guard refuses it up front…
    let psi = CVec::basis_state(1 << n, 0);
    let err = DensityState::try_from_pure(&psi, &ResourceLimits::default()).unwrap_err();
    assert!(
        matches!(err, QclabError::ResourceExhausted { qubits: 40, .. }),
        "density at n = 20 must exhaust the limit, got {err:?}"
    );

    // …while the trajectory engine samples the same noisy physics in
    // 16 MiB per shot
    let mut c = QCircuit::new(n);
    c.push_back(Hadamard::new(0));
    for q in 0..n - 1 {
        c.push_back(CNOT::new(q, q + 1));
    }
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    let result = run_trajectories(
        &c,
        &TrajectoryConfig {
            shots: 8,
            seed: 3,
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::BitFlip(0.01)),
                ..NoiseSpec::default()
            },
            ..TrajectoryConfig::default()
        },
    )
    .unwrap();
    assert_eq!(result.nb_qubits(), n);
    assert_eq!(result.total_counts(), 8);
    for record in result.counts().keys() {
        assert_eq!(record.len(), n);
    }
}

#[test]
fn oversized_and_malformed_requests_error_instead_of_panicking() {
    // 70 qubits: 2^70 amplitudes can never be allocated
    let big = QCircuit::new(70);
    assert!(matches!(
        big.simulate(&CVec::basis_state(2, 0)),
        Err(QclabError::ResourceExhausted { qubits: 70, .. })
            | Err(QclabError::DimensionMismatch { .. })
    ));
    let err = run_trajectories(&big, &TrajectoryConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        QclabError::ResourceExhausted { qubits: 70, .. }
    ));

    // a 140-qubit doubled register for to_matrix cannot even be sized
    assert!(matches!(
        QCircuit::new(70).to_matrix(),
        Err(QclabError::ResourceExhausted { .. })
    ));

    // invalid noise probabilities are rejected up front
    for bad in [-0.1, 1.5, f64::NAN] {
        let err = run_trajectories(
            &ghz_circuit(2),
            &TrajectoryConfig {
                noise: NoiseSpec {
                    after_gate: Some(PauliChannel::BitFlip(bad)),
                    ..NoiseSpec::default()
                },
                ..TrajectoryConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, QclabError::InvalidNoiseSpec(_)), "p = {bad}");
    }

    // mis-sized observables and initial states are dimension errors
    let err = run_trajectories(
        &ghz_circuit(3),
        &TrajectoryConfig {
            observables: vec![z_on(2, 0)],
            ..TrajectoryConfig::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, QclabError::DimensionMismatch { .. }));
    let err = run_trajectories_from(
        &ghz_circuit(3),
        &CVec::basis_state(4, 0),
        &TrajectoryConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, QclabError::DimensionMismatch { .. }));

    // malformed observable strings come back as error values too
    assert!(Observable::new(2).try_term(1.0, "ZQ").is_err());
    assert!(Observable::new(2).try_term(1.0, "ZZZ").is_err());
}
