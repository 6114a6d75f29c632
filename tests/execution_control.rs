//! Integration tests for the execution-control layer: cooperative
//! cancellation and deadlines across all five executors (dense sweep,
//! sparse per-op, density, stabilizer, trajectory), the partial-result
//! contract for trajectory ensembles, and the bit-identity guarantee —
//! control checks read the clock and an atomic flag only, never an RNG
//! stream, so a run that completes under a generous deadline is
//! byte-identical to one with no control at all.

#![allow(clippy::disallowed_methods)] // a test may let a refused thread panic

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::control::{ExecutionControl, StopCause};
use qclab_core::sim::density::{run_noisy, DensityState, NoiseModel};
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::route::BackendRequest;
use qclab_core::sim::sparse::{self, SparseState};
use qclab_core::sim::stabilizer::run_program;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, Reference, TrajectoryConfig,
};
use qclab_core::sim::SimOptions;
use qclab_core::QclabError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An n-qubit circuit of `layers` H + CNOT-chain layers with terminal
/// measurements: enough ops to cross any check interval when unfused.
fn workload(n: usize, layers: usize) -> QCircuit {
    let mut c = QCircuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.push_back(Hadamard::new(q));
        }
        for q in 0..n - 1 {
            c.push_back(CNOT::new(q, q + 1));
        }
    }
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    c
}

/// A control whose cancel token is already set: the first check fires.
fn cancelled_control() -> ExecutionControl {
    let token = Arc::new(AtomicBool::new(true));
    ExecutionControl::with_cancel_token(token).check_every(1)
}

/// A control whose deadline is already in the past.
fn expired_control() -> ExecutionControl {
    ExecutionControl::with_deadline(Instant::now() - Duration::from_secs(1)).check_every(1)
}

/// A control that can never plausibly fire during a test run.
fn generous_control() -> ExecutionControl {
    ExecutionControl::with_timeout(Duration::from_secs(3600))
}

#[test]
fn dense_run_observes_cancellation() {
    let c = workload(3, 4);
    let opts = SimOptions {
        control: cancelled_control(),
        ..SimOptions::default()
    };
    match c.simulate_bitstring_routed("000", &opts, BackendRequest::Dense) {
        Err(QclabError::Cancelled(p)) => assert!(p.ops_done >= 1),
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn dense_run_observes_deadline() {
    let c = workload(3, 4);
    let opts = SimOptions {
        control: expired_control(),
        ..SimOptions::default()
    };
    assert!(matches!(
        c.simulate_bitstring_routed("000", &opts, BackendRequest::Dense),
        Err(QclabError::DeadlineExceeded(_))
    ));
}

#[test]
fn sparse_run_observes_cancellation_and_deadline() {
    let c = workload(3, 4);
    let program = program::compile(&c, &PlanOptions::unfused());
    let run = |control: ExecutionControl| {
        let opts = SimOptions {
            control,
            ..SimOptions::default()
        };
        sparse::execute(&program, SparseState::from_bitstring("000").unwrap(), &opts)
    };
    assert!(matches!(
        run(cancelled_control()),
        Err(QclabError::Cancelled(_))
    ));
    assert!(matches!(
        run(expired_control()),
        Err(QclabError::DeadlineExceeded(_))
    ));
    // a generous deadline reproduces the uncontrolled run exactly
    let plain = run(ExecutionControl::none()).unwrap();
    let timed = run(generous_control()).unwrap();
    assert_eq!(plain.results(), timed.results());
    assert_eq!(plain.probabilities(), timed.probabilities());
    let amplitudes = |s: &SparseState| {
        let mut amps: Vec<_> = s.iter().collect();
        amps.sort_by_key(|&(idx, _)| idx);
        amps
    };
    for (p, t) in plain.states().into_iter().zip(timed.states()) {
        assert_eq!(amplitudes(p), amplitudes(t));
    }
}

#[test]
fn density_run_observes_cancellation_and_deadline() {
    let c = workload(2, 3);
    let psi = CVec::basis_state(4, 0);
    let rho = DensityState::from_pure(&psi);
    let noise = NoiseModel { after_gate: None };
    assert!(matches!(
        run_noisy(&c, &rho, &noise, &cancelled_control()),
        Err(QclabError::Cancelled(_))
    ));
    assert!(matches!(
        run_noisy(&c, &rho, &noise, &expired_control()),
        Err(QclabError::DeadlineExceeded(_))
    ));
    // a generous deadline reproduces the uncontrolled evolution exactly
    let plain = run_noisy(&c, &rho, &noise, &ExecutionControl::none()).unwrap();
    let timed = run_noisy(&c, &rho, &noise, &generous_control()).unwrap();
    assert_eq!(plain.purity(), timed.purity());
    assert_eq!(
        plain.fidelity_with_pure(&psi),
        timed.fidelity_with_pure(&psi)
    );
}

#[test]
fn stabilizer_run_observes_cancellation_and_deadline() {
    // Clifford-only workload: H / CNOT layers + measurements
    let c = workload(3, 4);
    let program = program::compile(&c, &PlanOptions::unfused());
    let mut rng = qclab_math::rng::Rng::seed_from_u64(11);
    assert!(matches!(
        run_program(&program, &mut rng, &cancelled_control()),
        Err(QclabError::Cancelled(_))
    ));
    assert!(matches!(
        run_program(&program, &mut rng, &expired_control()),
        Err(QclabError::DeadlineExceeded(_))
    ));
    // control checks never draw from the RNG: a fresh seed under a
    // generous deadline matches the uncontrolled run bit for bit
    let mut a = qclab_math::rng::Rng::seed_from_u64(11);
    let mut b = qclab_math::rng::Rng::seed_from_u64(11);
    let plain = run_program(&program, &mut a, &ExecutionControl::none()).unwrap();
    let timed = run_program(&program, &mut b, &generous_control()).unwrap();
    assert_eq!(plain.record, timed.record);
}

#[test]
fn cancelled_trajectory_ensemble_returns_empty_partial() {
    // ensembles report partial progress as Ok, not Err: a cancelled run
    // carries its completed shots (here none) and the stop cause
    let c = workload(3, 2);
    let config = TrajectoryConfig {
        shots: 40,
        seed: 3,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.02)),
            ..NoiseSpec::default()
        },
        control: cancelled_control(),
        ..TrajectoryConfig::default()
    };
    let result = run_trajectories(&c, &config).unwrap();
    assert!(result.is_partial());
    assert_eq!(result.stop_cause(), Some(StopCause::Cancelled));
    assert_eq!(result.shots(), 0);
    assert_eq!(result.requested_shots(), 40);
    assert!(result.counts().is_empty());
}

#[test]
fn timed_out_trajectory_ensemble_keeps_completed_shots() {
    // A deadline that expires mid-ensemble: make each shot heavy enough
    // (12 qubits, noisy per-shot path) that 200 shots take far longer
    // than the 20 ms budget, while a single shot completes well inside
    // it. The exact stop point is timing-dependent; the contract —
    // completed count in [0, requested], consistent counts total,
    // deadline cause — is not.
    let c = workload(12, 6);
    let config = TrajectoryConfig {
        shots: 200,
        seed: 9,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.01)),
            ..NoiseSpec::default()
        },
        control: ExecutionControl::with_timeout(Duration::from_millis(20)),
        // pin the heavy state-vector per-shot engine this test's
        // timing model is built on (the Clifford workload would
        // otherwise route to the frame sampler and finish instantly)
        reference: Reference::NoFrames,
        ..TrajectoryConfig::default()
    };
    let result = run_trajectories(&c, &config).unwrap();
    assert_eq!(result.requested_shots(), 200);
    let tallied: u64 = result.counts().values().sum();
    assert_eq!(tallied, result.shots(), "counts must cover completed shots");
    if result.is_partial() {
        assert_eq!(result.stop_cause(), Some(StopCause::DeadlineExceeded));
        assert!(result.shots() < 200);
    } else {
        // a very fast machine may finish; the contract still holds
        assert_eq!(result.shots(), 200);
    }
}

#[test]
fn a_batch_as_wide_as_an_unholdable_shot_count_times_out_too() {
    // 10^11 noisy shots in one "batch" of 10^11: a lane per shot would
    // be terabytes. A batch is never wider than the round it is
    // dispatched in, so memory does not grow with the width asked for
    // and the deadline decides, keeping the rounds tallied so far (until
    // PR 20 a leg of the CLI's `a_noisy_shot_count_no_machine_can_hold_…`
    // test, through the flags that set `shot_batch` and `frames`)
    let bell = workload(2, 1);
    let shots = 100_000_000_000u64;
    let config = TrajectoryConfig {
        shots,
        shot_batch: shots as usize,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(0.01)),
            ..NoiseSpec::default()
        },
        control: ExecutionControl::with_timeout(Duration::from_millis(200)),
        // the state-vector engine: a Bell pair would otherwise route to
        // the frame sampler
        reference: Reference::NoFrames,
        ..TrajectoryConfig::default()
    };
    let result = run_trajectories(&bell, &config).unwrap();
    assert_eq!(result.stop_cause(), Some(StopCause::DeadlineExceeded));
    assert_eq!(result.requested_shots(), shots);
    assert!(result.shots() > 0 && result.shots() < shots);
    assert_eq!(result.counts().values().sum::<u64>(), result.shots());
    assert!(result.counts()["00"] > 0);
}

#[test]
fn generous_deadline_trajectories_are_bit_identical() {
    let c = workload(4, 3);
    let base = TrajectoryConfig {
        shots: 150,
        seed: 21,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(0.05)),
            idle: Some(PauliChannel::PhaseFlip(0.02)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    let plain = run_trajectories(&c, &base).unwrap();
    let timed = run_trajectories(
        &c,
        &TrajectoryConfig {
            control: generous_control(),
            ..base.clone()
        },
    )
    .unwrap();
    assert!(!timed.is_partial());
    assert_eq!(plain.counts(), timed.counts());
    assert_eq!(plain.injected_errors(), timed.injected_errors());
    assert_eq!(plain.shots(), timed.shots());
}

#[test]
fn generous_deadline_dense_simulation_is_bit_identical() {
    let c = workload(4, 3);
    let plain = c.simulate_bitstring("0000").unwrap();
    let timed = c
        .simulate_bitstring_routed(
            "0000",
            &SimOptions {
                control: generous_control(),
                ..SimOptions::default()
            },
            BackendRequest::Dense,
        )
        .unwrap();
    assert_eq!(plain.results(), timed.results());
    assert_eq!(plain.probabilities(), timed.probabilities());
}

#[test]
fn cancellation_respects_the_check_interval_bound() {
    // with check_every(8) on a 50-op program, the run stops within 8
    // ops of the (pre-set) cancellation — never later
    let c = workload(3, 4); // 4 * (3 H + 2 CNOT) + 3 M = 23 ops unfused
    let token = Arc::new(AtomicBool::new(true));
    let opts = SimOptions {
        control: ExecutionControl::with_cancel_token(Arc::clone(&token)).check_every(8),
        kernel: qclab_core::sim::kernel::KernelConfig {
            fuse: false,
            ..qclab_core::sim::kernel::KernelConfig::default()
        },
        ..SimOptions::default()
    };
    match c.simulate_bitstring_routed("000", &opts, BackendRequest::Dense) {
        Err(QclabError::Cancelled(p)) => {
            assert!(p.ops_done <= 8, "stopped after {} ops", p.ops_done)
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn mid_run_cancellation_from_another_thread_stops_the_ensemble() {
    // the real use case: a controller thread flips the shared token
    // while the ensemble runs; the run returns Ok(partial) promptly
    let c = workload(12, 6);
    let token = Arc::new(AtomicBool::new(false));
    let config = TrajectoryConfig {
        shots: 100_000,
        seed: 2,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.01)),
            ..NoiseSpec::default()
        },
        control: ExecutionControl::with_cancel_token(Arc::clone(&token)),
        // pin the state-vector engine: 100k shots must still be
        // running when the controller thread cancels at 30 ms
        reference: Reference::NoFrames,
        ..TrajectoryConfig::default()
    };
    let canceller = {
        let token = Arc::clone(&token);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.store(true, Ordering::SeqCst);
        })
    };
    let result = run_trajectories(&c, &config).unwrap();
    canceller.join().unwrap();
    assert!(
        result.is_partial(),
        "100k heavy shots cannot finish in 30ms"
    );
    assert_eq!(result.stop_cause(), Some(StopCause::Cancelled));
    assert!(result.shots() < 100_000);
    let tallied: u64 = result.counts().values().sum();
    assert_eq!(tallied, result.shots());
}

#[test]
fn routed_auto_surfaces_deadline_as_error_when_sparse_cannot_rescue() {
    // under Auto an expired deadline degrades dense -> sparse; with
    // check_every(1) the sparse retry hits its own first check, so the
    // deadline still surfaces — as DeadlineExceeded, never a panic
    let c = workload(3, 4);
    let opts = SimOptions {
        control: expired_control(),
        ..SimOptions::default()
    };
    assert!(matches!(
        c.simulate_bitstring_routed("000", &opts, BackendRequest::Auto),
        Err(QclabError::DeadlineExceeded(_))
    ));
    // a pinned-sparse run under the same control also stops cleanly
    assert!(matches!(
        c.simulate_bitstring_routed("000", &opts, BackendRequest::Sparse),
        Err(QclabError::DeadlineExceeded(_))
    ));
}

#[test]
fn resource_limits_still_bind_under_control() {
    // control never bypasses the guard: an oversized register is
    // refused up front even with an (irrelevant) generous deadline
    let c = workload(3, 1);
    let opts = SimOptions {
        control: generous_control(),
        limits: ResourceLimits::with_max_qubits(2),
        ..SimOptions::default()
    };
    assert!(matches!(
        c.simulate_bitstring_routed("000", &opts, BackendRequest::Dense),
        Err(QclabError::ResourceExhausted { .. })
    ));
}
