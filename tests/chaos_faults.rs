//! Fault-injection (chaos) suite — compiled only with the `chaos`
//! feature (`cargo test --features chaos --test chaos_faults`).
//!
//! The `sim::control::chaos` hook fires exactly one forced fault —
//! cancellation, synthetic allocation refusal, or panic — at a chosen
//! op boundary inside whichever executor reaches it first. Each test
//! arms a fault, proves the run fails the way the fault dictates, and
//! then proves the *same process* recovers completely: an identical
//! follow-up run reproduces the no-fault baseline bit for bit, and the
//! global plan cache is never left poisoned.
//!
//! The hook state is process-global, so every test serializes on one
//! mutex and disarms on entry.

#![cfg(feature = "chaos")]

mod common;

use common::with_threads;
use qclab::prelude::*;
use qclab_core::program::{compile, plan_cache_stats, BackendRequest, PlanOptions};
use qclab_core::sim::control::chaos::{self, Fault};
use qclab_core::sim::control::StopCause;
use qclab_core::sim::density::{run_noisy, DensityState, NoiseModel};
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::sparse::{self, SparseState};
use qclab_core::sim::stabilizer::run_program;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, Reference, TrajectoryConfig,
};
use qclab_core::sim::SimOptions;
use qclab_core::QclabError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes the tests: the chaos hook is process-global state.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a failed assertion in one test must not wedge the rest
    let guard = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    chaos::disarm();
    guard
}

/// A 3-qubit H/CNOT workload with terminal measurements.
fn workload() -> QCircuit {
    let mut c = QCircuit::new(3);
    for _ in 0..3 {
        for q in 0..3 {
            c.push_back(Hadamard::new(q));
        }
        c.push_back(CNOT::new(0, 1));
        c.push_back(CNOT::new(1, 2));
    }
    for q in 0..3 {
        c.push_back(Measurement::z(q));
    }
    c
}

/// Runs `run` under each fault class at op boundary `at` and asserts
/// the clean unwind: Cancel surfaces as `Cancelled`, Refuse as
/// `ResourceExhausted`, Panic unwinds but is containable — and after
/// every fault the identical call reproduces `baseline`.
fn assert_recovers<T: PartialEq + std::fmt::Debug>(
    run: impl Fn() -> Result<T, QclabError>,
    baseline: &T,
    at: u64,
) {
    chaos::arm(Fault::Cancel, at);
    assert!(
        matches!(run(), Err(QclabError::Cancelled(_))),
        "armed Cancel must surface as Cancelled"
    );
    assert_eq!(&run().unwrap(), baseline, "recovery after Cancel");

    chaos::arm(Fault::Refuse, at);
    assert!(
        matches!(run(), Err(QclabError::ResourceExhausted { .. })),
        "armed Refuse must surface as ResourceExhausted"
    );
    assert_eq!(&run().unwrap(), baseline, "recovery after Refuse");

    chaos::arm(Fault::Panic, at);
    assert!(
        catch_unwind(AssertUnwindSafe(&run)).is_err(),
        "armed Panic must unwind"
    );
    assert_eq!(&run().unwrap(), baseline, "recovery after Panic");
}

#[test]
fn dense_executor_unwinds_cleanly_under_every_fault() {
    let _g = lock();
    let c = workload();
    let run = || {
        c.simulate_bitstring_with("000", &SimOptions::default())
            .map(|s| {
                (
                    s.results()
                        .iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>(),
                    s.probabilities(),
                )
            })
    };
    let baseline = run().unwrap();
    // the fused dense program pokes once per sweep window plus once per
    // measurement, so keep the boundary indices within that budget
    for at in [0, 2] {
        assert_recovers(run, &baseline, at);
    }
}

#[test]
fn sparse_executor_unwinds_cleanly_under_every_fault() {
    let _g = lock();
    let c = workload();
    let program = c.compile_with(&PlanOptions::unfused());
    let run = || {
        sparse::execute_controlled(
            &program,
            SparseState::from_bitstring("000").unwrap(),
            &ResourceLimits::default(),
            &qclab_core::sim::control::ExecutionControl::none(),
        )
        .map(|s| {
            (
                s.results()
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>(),
                s.probabilities(),
            )
        })
    };
    let baseline = run().unwrap();
    for at in [0, 3] {
        assert_recovers(run, &baseline, at);
    }
}

#[test]
fn density_executor_unwinds_cleanly_under_every_fault() {
    let _g = lock();
    let c = workload();
    let psi = CVec::basis_state(8, 0);
    let rho = DensityState::from_pure(&psi);
    let noise = NoiseModel { after_gate: None };
    let run = || {
        run_noisy(&c, &rho, &noise).map(|s| {
            // purity/fidelity pin the final state closely enough for a
            // bit-identity check of the deterministic evolution
            (s.purity().to_bits(), s.fidelity_with_pure(&psi).to_bits())
        })
    };
    let baseline = run().unwrap();
    for at in [0, 4] {
        assert_recovers(run, &baseline, at);
    }
}

#[test]
fn stabilizer_executor_unwinds_cleanly_under_every_fault() {
    let _g = lock();
    let c = workload();
    let program = c.compile_with(&PlanOptions::unfused());
    let run = || {
        // fresh RNG per run: recovery must be deterministic in the seed
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        run_program(&program, &mut rng).map(|r| r.record)
    };
    let baseline = run().unwrap();
    for at in [0, 2] {
        assert_recovers(run, &baseline, at);
    }
}

#[test]
fn trajectory_ensemble_unwinds_cleanly_under_every_fault() {
    let _g = lock();
    let c = workload();
    // per-shot noisy path, serial: the fault fires inside a shot and
    // must not leak into the next run through the reused buffers
    let config = TrajectoryConfig {
        shots: 30,
        seed: 13,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.05)),
            ..NoiseSpec::default()
        },
        kernel: KernelConfig {
            allow_parallel: false,
            ..KernelConfig::default()
        },
        // pin the state-vector per-shot path: the fault tick counts
        // below are calibrated to its op cadence (the frame sampler
        // has its own leg below)
        reference: Reference::NoFrames,
        ..TrajectoryConfig::default()
    };
    let run = || run_trajectories(&c, &config);
    let baseline = run().unwrap();
    assert!(!baseline.is_partial());

    // a forced cancellation mid-ensemble is a *partial result*, not an
    // error: completed shots are kept and flagged
    chaos::arm(Fault::Cancel, 40);
    let partial = run().unwrap();
    assert_eq!(partial.stop_cause(), Some(StopCause::Cancelled));
    assert!(partial.shots() < 30);
    let tallied: u64 = partial.counts().values().sum();
    assert_eq!(tallied, partial.shots());
    let again = run().unwrap();
    assert_eq!(again.counts(), baseline.counts(), "recovery after Cancel");

    // a refusal is not a stop cause — it surfaces as the error it is
    chaos::arm(Fault::Refuse, 40);
    assert!(matches!(run(), Err(QclabError::ResourceExhausted { .. })));
    let again = run().unwrap();
    assert_eq!(again.counts(), baseline.counts(), "recovery after Refuse");

    // a panic mid-shot unwinds through the buffer arena and leaves it
    // reusable: the next ensemble is bit-identical to the baseline
    chaos::arm(Fault::Panic, 40);
    assert!(catch_unwind(AssertUnwindSafe(&run)).is_err());
    let again = run().unwrap();
    assert_eq!(again.counts(), baseline.counts(), "recovery after Panic");
    assert_eq!(again.injected_errors(), baseline.injected_errors());
}

#[test]
fn frame_sampler_unwinds_cleanly_under_every_fault() {
    let _g = lock();
    let c = workload();
    // all-Clifford + Pauli noise: the default config routes this
    // through the Pauli-frame sampler; serial so the fault lands at a
    // deterministic tick
    let config = TrajectoryConfig {
        shots: 30,
        seed: 13,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.05)),
            ..NoiseSpec::default()
        },
        kernel: KernelConfig {
            allow_parallel: false,
            ..KernelConfig::default()
        },
        ..TrajectoryConfig::default()
    };
    let run = || run_trajectories(&c, &config);
    let baseline = run().unwrap();
    assert_eq!(
        baseline.path(),
        qclab_core::sim::trajectory::ShotPath::PauliFrame
    );
    assert!(!baseline.is_partial());

    // tick 5 lands inside the one-time reference run, tick 25 inside
    // the frame batch (the 18-op workload ticks 18 times per phase) —
    // both must surface as a clean partial result, then fully recover
    for at in [5, 25] {
        chaos::arm(Fault::Cancel, at);
        let partial = run().unwrap();
        assert_eq!(partial.stop_cause(), Some(StopCause::Cancelled));
        assert!(partial.shots() < 30);
        let tallied: u64 = partial.counts().values().sum();
        assert_eq!(tallied, partial.shots());
        let again = run().unwrap();
        assert_eq!(again.counts(), baseline.counts(), "recovery after Cancel");

        chaos::arm(Fault::Refuse, at);
        assert!(matches!(run(), Err(QclabError::ResourceExhausted { .. })));
        let again = run().unwrap();
        assert_eq!(again.counts(), baseline.counts(), "recovery after Refuse");

        chaos::arm(Fault::Panic, at);
        assert!(catch_unwind(AssertUnwindSafe(&run)).is_err());
        let again = run().unwrap();
        assert_eq!(again.counts(), baseline.counts(), "recovery after Panic");
        assert_eq!(again.injected_errors(), baseline.injected_errors());
    }
}

#[test]
fn forced_refusal_under_auto_degrades_to_sparse() {
    let _g = lock();
    let c = workload();
    let opts = SimOptions::default();
    let dense_baseline = c
        .simulate_bitstring_routed("000", &opts, BackendRequest::Auto)
        .unwrap();
    assert!(!dense_baseline.is_sparse(), "small workload routes dense");

    // the single-shot refusal hits the dense run; the Auto router
    // falls back to the sparse executor, which runs fault-free
    chaos::arm(Fault::Refuse, 0);
    let rescued = c
        .simulate_bitstring_routed("000", &opts, BackendRequest::Auto)
        .unwrap();
    assert!(rescued.is_sparse(), "refused dense run must degrade");
    // same distribution either way
    let mut dense: Vec<(String, f64)> = dense_baseline
        .results()
        .iter()
        .map(|r| r.to_string())
        .zip(dense_baseline.probabilities())
        .collect();
    let mut sparse: Vec<(String, f64)> = rescued
        .results()
        .iter()
        .map(|r| r.to_string())
        .zip(rescued.probabilities())
        .collect();
    dense.sort_by(|a, b| a.0.cmp(&b.0));
    sparse.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(dense.len(), sparse.len());
    for ((rd, pd), (rs, ps)) in dense.iter().zip(&sparse) {
        assert_eq!(rd, rs);
        assert!((pd - ps).abs() < 1e-12);
    }

    // under a pinned Dense request the refusal surfaces instead
    chaos::arm(Fault::Refuse, 0);
    assert!(matches!(
        c.simulate_bitstring_routed("000", &opts, BackendRequest::Dense),
        Err(QclabError::ResourceExhausted { .. })
    ));
}

#[test]
fn plan_cache_survives_forced_panics() {
    let _g = lock();
    let c = workload();
    let opts = PlanOptions::default();
    let before = compile(&c, &opts);

    // panic inside an executor (which holds no cache lock) and inside a
    // compile-adjacent path: afterwards the cache must still serve the
    // same Arc and its stats must be consistent
    for _ in 0..3 {
        chaos::arm(Fault::Panic, 0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            c.simulate_bitstring_with("000", &SimOptions::default())
        }));
    }
    chaos::disarm();

    let after = compile(&c, &opts);
    assert!(
        Arc::ptr_eq(&before, &after),
        "plan cache must keep serving the pre-panic entry"
    );
    let stats = plan_cache_stats();
    assert!(stats.entries >= 1);

    // and a full differential run still matches a fresh computation
    let a = c
        .simulate_bitstring_with("000", &SimOptions::default())
        .unwrap();
    let b = c
        .simulate_bitstring_with("000", &SimOptions::default())
        .unwrap();
    assert_eq!(a.results(), b.results());
    assert_eq!(a.probabilities(), b.probabilities());
}

/// Runs `run` at four threads with every thread start refused, then with
/// only the first refused, and requires the unfaulted result each time.
fn assert_refused_threads_only_slow_down<T: PartialEq + std::fmt::Debug>(run: impl Fn() -> T) {
    let baseline = with_threads(4, &run);
    for refused in [u64::MAX, 1] {
        chaos::refuse_spawns(refused);
        let got = with_threads(4, &run);
        assert!(
            chaos::spawns_to_refuse() < refused,
            "the run never asked for a thread"
        );
        chaos::disarm();
        assert_eq!(got, baseline, "{refused} thread start(s) refused");
    }
}

#[test]
fn a_refused_thread_is_a_slower_run_not_a_different_one() {
    let _g = lock();
    let sample = |c: &QCircuit, config: &TrajectoryConfig| {
        let r = run_trajectories(c, config).unwrap();
        (r.path(), r.injected_errors(), r.counts().clone())
    };

    // a dense sample above the parallel threshold: the kernels and the
    // window tiles fan out
    let n = 19;
    let mut dense = QCircuit::new(n);
    for layer in 0..4 {
        for q in 0..n {
            dense.push_back(Hadamard::new(q));
        }
        for q in (layer % 2..n - 1).step_by(2) {
            dense.push_back(CNOT::new(q, q + 1));
        }
    }
    for q in 0..n {
        dense.push_back(Measurement::z(q));
    }
    let config = TrajectoryConfig {
        shots: 10,
        ..TrajectoryConfig::default()
    };
    assert_refused_threads_only_slow_down(|| sample(&dense, &config));

    // a noisy non-Clifford ensemble: the shot batches fan out
    let mut noisy = workload();
    noisy.insert(0, TGate::new(1)).unwrap();
    let config = TrajectoryConfig {
        shots: 2000,
        shot_batch: 8,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.05)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    assert_refused_threads_only_slow_down(|| sample(&noisy, &config));
}
