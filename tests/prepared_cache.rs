//! Contract of the preparation a cached plan retains
//! (`qclab_core::sim::trajectory`): a run from `|0…0⟩` that ends in a
//! terminal measurement block (dense or sparse, noiseless or noisy)
//! leaves its seed-independent preparation — the noiseless evolution
//! reduced to a cumulative table, 8 bytes an outcome — on its plan, and
//! every later run over that plan draws from it. A run with a
//! mid-circuit measurement retains nothing. What must hold:
//!
//! * a run served from a retained preparation is `==` the same run made
//!   cold — counts, injected errors, watchdog statistics, path;
//! * the slot is keyed: a dense run under another kernel or watchdog
//!   configuration computes its own preparation, gets its own correct
//!   result, and leaves the first one in place (the sparse route reads
//!   neither, and hits under any);
//! * nothing is stored by a preparation that did not finish (deadline,
//!   cancel, injected fault), and guards keep refusing on a warm plan;
//! * memory is bounded: nothing over the cap is kept, the total never
//!   exceeds capacity × cap, and a preparation dies with its plan;
//! * a plan is kept only when asked for again after its last holder let
//!   go, so a one-off run leaves nothing behind. The tests below that
//!   need a resident plan ask for it once first ([`seen_once`]).
//!
//! The plan cache and its counters are process-global, so the tests of
//! this binary take one lock.

#![allow(clippy::disallowed_methods)] // a test may let a refused thread panic

use qclab::algorithms::ghz::ghz_circuit;
use qclab::algorithms::qft::qft;
use qclab::prelude::*;
use qclab_core::program::{
    self, clear_plan_cache, plan_cache_stats, BackendRequest, PLAN_CACHE_CAPACITY,
    RETAINED_BYTES_CAP,
};
use qclab_core::service::ErrorKind;
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{
    route, run_trajectories, NoiseSpec, NormStats, PauliChannel, ShotPath, TrajectoryConfig,
    TrajectoryResult, WatchdogConfig,
};
use qclab_core::{CircuitItem, QclabError};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the binary's lock and starts from an empty plan cache.
fn fresh_cache() -> MutexGuard<'static, ()> {
    // a failed assertion in one test must not wedge the rest
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    #[cfg(feature = "chaos")]
    qclab_core::sim::control::chaos::disarm();
    program::set_plan_cache_capacity(PLAN_CACHE_CAPACITY);
    clear_plan_cache();
    guard
}

/// Everything of a result a retained preparation could get wrong.
type Outcome = (BTreeMap<String, u64>, u64, NormStats, ShotPath, u64);

fn outcome(r: &TrajectoryResult) -> Outcome {
    (
        r.counts().clone(),
        r.injected_errors(),
        *r.norm_stats(),
        r.path(),
        r.shots(),
    )
}

/// The same run over a plan cache that knows nothing.
fn cold(circuit: &QCircuit, config: &TrajectoryConfig) -> Outcome {
    clear_plan_cache();
    let r = run_trajectories(circuit, config).unwrap();
    assert!(!r.prep_hit(), "a cleared cache cannot supply a preparation");
    outcome(&r)
}

/// Asks for the plan a run of `circuit` under `config` executes, and
/// lets go of it: the next run asks again, and its plan is resident.
fn seen_once(circuit: &QCircuit, config: &TrajectoryConfig) {
    drop(route(circuit, config, None));
}

fn assert_bounded() {
    let stats = plan_cache_stats();
    assert!(
        stats.prep_bytes <= program::plan_cache_capacity() * RETAINED_BYTES_CAP,
        "{} bytes retained",
        stats.prep_bytes
    );
}

/// Alias path: a product state through the QFT, half the register
/// measured.
fn alias_qft(n: usize) -> (QCircuit, TrajectoryConfig) {
    let mut c = QCircuit::new(n);
    for q in 0..n {
        c.push_back(RotationY::new(q, 0.4 + 0.3 * q as f64));
    }
    c.push_back(CircuitItem::SubCircuit {
        offset: 0,
        circuit: qft(n),
    });
    for q in (0..n).step_by(2) {
        c.push_back(Measurement::z(q));
    }
    (c, TrajectoryConfig::default())
}

/// Sparse-sampled path: GHZ on 30 qubits under `auto` (the dense guard
/// refuses the register).
fn sparse_ghz30() -> (QCircuit, TrajectoryConfig) {
    let n = 30;
    let mut c = ghz_circuit(n);
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    let config = TrajectoryConfig {
        backend: BackendRequest::Auto,
        ..TrajectoryConfig::default()
    };
    (c, config)
}

/// Noisy terminal program: the same circuit under gate noise (the QFT's
/// controlled phases keep the frame sampler out). Lanes that inject
/// nothing draw from the retained table of the noiseless evolution.
fn noisy_qft8() -> (QCircuit, TrajectoryConfig) {
    let (c, base) = alias_qft(8);
    let config = TrajectoryConfig {
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.01)),
            ..NoiseSpec::default()
        },
        ..base
    };
    (c, config)
}

/// Fork path, teleport/QEC style: a deterministic prefix, then
/// mid-circuit measurements, a reset and more gates, under readout
/// noise.
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
        noise: NoiseSpec {
            before_measure: Some(PauliChannel::BitFlip(0.05)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    (c, config)
}

fn seeded(base: &TrajectoryConfig, seed: u64) -> TrajectoryConfig {
    TrajectoryConfig {
        seed,
        shots: 400,
        ..base.clone()
    }
}

type Build = fn() -> (QCircuit, TrajectoryConfig);

#[test]
fn warm_runs_equal_cold_runs_on_every_path() {
    let _g = fresh_cache();
    // a terminal block retains its table (8 bytes an outcome; the
    // sparse one its outcome list as well), a mid-circuit measurement
    // retains nothing
    let cases: [(&str, Build, usize); 4] = [
        ("alias", || alias_qft(8), 16 * 8),
        ("noisy terminal", noisy_qft8, 16 * 8),
        ("sparse", sparse_ghz30, 2 * (8 + 8)),
        ("forked", forked, 0),
    ];
    for (name, build, bytes) in cases {
        let retained = bytes > 0;
        let (circuit, base) = build();
        clear_plan_cache();
        seen_once(&circuit, &seeded(&base, 21));
        let before = plan_cache_stats();
        // seeds a, b, a over one plan: the first run prepares, the
        // others draw from what it left
        let warm: Vec<(u64, TrajectoryResult)> = [21, 22, 21]
            .into_iter()
            .map(|seed| {
                let r = run_trajectories(&circuit, &seeded(&base, seed)).unwrap();
                (seed, r)
            })
            .collect();
        let hits: Vec<bool> = warm.iter().map(|(_, r)| r.prep_hit()).collect();
        assert_eq!(hits, [false, retained, retained], "{name}");
        let after = plan_cache_stats();
        let looks = u64::from(retained);
        assert_eq!(after.prep_hits, before.prep_hits + 2 * looks, "{name}");
        assert_eq!(after.prep_misses, before.prep_misses + looks, "{name}");
        assert_eq!(after.prep_bytes, bytes, "{name}");
        assert_bounded();
        assert_eq!(outcome(&warm[0].1), outcome(&warm[2].1), "{name}: a ≠ a");
        assert_ne!(warm[0].1.counts(), warm[1].1.counts(), "{name}: a = b");
        for (seed, r) in &warm {
            assert_eq!(
                outcome(r),
                cold(&circuit, &seeded(&base, *seed)),
                "{name}, seed {seed}"
            );
        }
    }
    clear_plan_cache();
    assert_eq!(plan_cache_stats().prep_bytes, 0);
}

#[test]
fn another_configuration_is_a_miss_that_leaves_the_first_in_place() {
    let _g = fresh_cache();
    let (circuit, base) = alias_qft(8);
    let first = seeded(&base, 5);
    let scalar = TrajectoryConfig {
        kernel: KernelConfig {
            allow_simd: false,
            ..first.kernel
        },
        ..first.clone()
    };
    // a short watchdog cadence shows in `norm_stats().checks`: serving
    // this run from the first run's preparation would be a wrong answer
    let watched = TrajectoryConfig {
        watchdog: WatchdogConfig {
            check_every: 4,
            ..first.watchdog
        },
        ..first.clone()
    };
    let golden_first = cold(&circuit, &first);
    let golden_scalar = cold(&circuit, &scalar);
    let golden_watched = cold(&circuit, &watched);
    assert_ne!(golden_first.2, golden_watched.2, "cadence must show");

    clear_plan_cache();
    seen_once(&circuit, &first);
    assert!(!run_trajectories(&circuit, &first).unwrap().prep_hit());
    let held = plan_cache_stats().prep_bytes;
    assert!(held > 0);
    for (other, golden) in [(&scalar, &golden_scalar), (&watched, &golden_watched)] {
        for _ in 0..2 {
            let r = run_trajectories(&circuit, other).unwrap();
            assert!(!r.prep_hit(), "another key must miss, every time");
            assert_eq!(&outcome(&r), golden);
        }
        assert_eq!(plan_cache_stats().prep_bytes, held);
        let r = run_trajectories(&circuit, &first).unwrap();
        assert!(r.prep_hit(), "the first preparation must still be there");
        assert_eq!(outcome(&r), golden_first);
    }

    // the sparse preparation reads neither configuration, so neither is
    // part of its key: the same runs hit
    let (circuit, base) = sparse_ghz30();
    let first = seeded(&base, 5);
    let golden = cold(&circuit, &first);
    // asked again: resident now, with the first run's preparation
    assert!(!run_trajectories(&circuit, &first).unwrap().prep_hit());
    for other in [
        TrajectoryConfig {
            kernel: scalar.kernel,
            ..first.clone()
        },
        TrajectoryConfig {
            watchdog: watched.watchdog,
            ..first.clone()
        },
    ] {
        let r = run_trajectories(&circuit, &other).unwrap();
        assert!(r.prep_hit(), "the sparse key is the path alone");
        assert_eq!(outcome(&r), golden);
    }
}

#[test]
fn a_stopped_preparation_stores_nothing() {
    let _g = fresh_cache();
    let cancelled =
        || ExecutionControl::with_cancel_token(Arc::new(AtomicBool::new(true))).check_every(1);
    let expired = || ExecutionControl::with_deadline(std::time::Instant::now()).check_every(1);
    let builds: [Build; 4] = [|| alias_qft(8), noisy_qft8, sparse_ghz30, forked];
    for build in builds {
        let (circuit, base) = build();
        let config = seeded(&base, 8);
        let golden = cold(&circuit, &config);
        for control in [cancelled(), expired()] {
            clear_plan_cache();
            seen_once(&circuit, &config);
            let stopped = run_trajectories(
                &circuit,
                &TrajectoryConfig {
                    control,
                    ..config.clone()
                },
            )
            .unwrap();
            assert!(stopped.is_partial());
            assert_eq!(stopped.shots(), 0, "stopped inside the one-time prefix");
            assert_eq!(plan_cache_stats().prep_bytes, 0);
            let next = run_trajectories(&circuit, &config).unwrap();
            assert!(!next.prep_hit());
            assert_eq!(outcome(&next), golden);
        }
    }
}

#[cfg(feature = "chaos")]
#[test]
fn a_faulted_preparation_stores_nothing() {
    use qclab_core::sim::control::chaos::{self, Fault};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let _g = fresh_cache();
    let builds: [Build; 3] = [|| alias_qft(8), noisy_qft8, forked];
    for build in builds {
        let (circuit, base) = build();
        // serial, so the armed tick is an op boundary of the prefix
        let mut config = seeded(&base, 8);
        config.kernel.allow_parallel = false;
        let golden = cold(&circuit, &config);
        let run = || run_trajectories(&circuit, &config);

        clear_plan_cache();
        seen_once(&circuit, &config);
        chaos::arm(Fault::Refuse, 1);
        assert!(matches!(run(), Err(QclabError::ResourceExhausted { .. })));
        assert_eq!(plan_cache_stats().prep_bytes, 0);
        let next = run().unwrap();
        assert!(!next.prep_hit());
        assert_eq!(outcome(&next), golden, "after Refuse");

        clear_plan_cache();
        seen_once(&circuit, &config);
        chaos::arm(Fault::Panic, 1);
        assert!(catch_unwind(AssertUnwindSafe(run)).is_err());
        assert_eq!(plan_cache_stats().prep_bytes, 0);
        let next = run().unwrap();
        assert!(!next.prep_hit());
        assert_eq!(outcome(&next), golden, "after Panic");
    }
}

#[test]
fn guards_still_refuse_on_a_warm_plan() {
    let _g = fresh_cache();
    let refuses = |circuit: &QCircuit, config: &TrajectoryConfig| {
        let err = run_trajectories(circuit, config).expect_err("the guard must refuse");
        assert!(matches!(err, QclabError::ResourceExhausted { .. }), "{err}");
        assert_eq!(ErrorKind::classify(&err).exit_code(), 6);
    };
    let (circuit, base) = alias_qft(8);
    let config = seeded(&base, 2);
    seen_once(&circuit, &config);
    run_trajectories(&circuit, &config).unwrap();
    assert!(run_trajectories(&circuit, &config).unwrap().prep_hit());
    let narrow = TrajectoryConfig {
        limits: ResourceLimits {
            max_qubits: Some(3),
            ..config.limits
        },
        ..config.clone()
    };
    refuses(&circuit, &narrow);
    // the sparse route answers to its own guards: register width, and
    // the live entries its evolution peaked at
    let (circuit, base) = sparse_ghz30();
    let config = seeded(&base, 2);
    seen_once(&circuit, &config);
    run_trajectories(&circuit, &config).unwrap();
    assert!(run_trajectories(&circuit, &config).unwrap().prep_hit());
    for limits in [
        ResourceLimits {
            max_qubits: Some(29),
            ..config.limits
        },
        ResourceLimits {
            max_state_bytes: 16,
            ..config.limits
        },
    ] {
        refuses(
            &circuit,
            &TrajectoryConfig {
                limits,
                backend: BackendRequest::Sparse,
                ..config.clone()
            },
        );
    }
    // an invalid noise spec is still a usage error, warm plan or not
    let (circuit, base) = alias_qft(8);
    let config = seeded(&base, 2);
    assert!(run_trajectories(&circuit, &config).unwrap().prep_hit());
    let bad = TrajectoryConfig {
        noise: NoiseSpec {
            before_measure: Some(PauliChannel::BitFlip(1.5)),
            ..NoiseSpec::default()
        },
        ..config
    };
    assert!(matches!(
        run_trajectories(&circuit, &bad),
        Err(QclabError::InvalidNoiseSpec(_))
    ));
}

#[test]
fn a_preparation_over_the_cap_is_not_retained() {
    let _g = fresh_cache();
    // boundary-exact: at 8 bytes an outcome the table of 17 measured
    // qubits is the cap to the byte and is kept; that of 18 is not
    let hadamards = |n: usize| {
        let mut c = QCircuit::new(n);
        for q in 0..n {
            c.push_back(Hadamard::new(q));
        }
        for q in 0..n {
            c.push_back(Measurement::z(q));
        }
        c
    };
    let config = seeded(&TrajectoryConfig::default(), 4);
    for (n, kept) in [(17, RETAINED_BYTES_CAP), (18, 0)] {
        clear_plan_cache();
        let circuit = hadamards(n);
        seen_once(&circuit, &config);
        let first = run_trajectories(&circuit, &config).unwrap();
        assert!(matches!(first.path(), ShotPath::AliasSampled { .. }));
        assert_eq!(plan_cache_stats().prep_bytes, kept, "n = {n}");
        let second = run_trajectories(&circuit, &config).unwrap();
        assert_eq!(second.prep_hit(), kept > 0, "n = {n}");
        assert_eq!(outcome(&first), outcome(&second));
    }
}

#[test]
fn evicting_a_plan_drops_its_preparation() {
    let _g = fresh_cache();
    program::set_plan_cache_capacity(1);
    let (a, base) = alias_qft(8);
    let (b, _) = alias_qft(6);
    let config = seeded(&base, 6);
    seen_once(&a, &config);
    run_trajectories(&a, &config).unwrap();
    let held_a = plan_cache_stats().prep_bytes;
    assert!(held_a > 0);
    assert!(run_trajectories(&a, &config).unwrap().prep_hit());
    seen_once(&b, &config);
    run_trajectories(&b, &config).unwrap();
    let held_b = plan_cache_stats().prep_bytes;
    assert!(
        0 < held_b && held_b < held_a,
        "only b's smaller table may remain, {held_b} bytes held"
    );
    assert_bounded();
    assert!(
        !run_trajectories(&a, &config).unwrap().prep_hit(),
        "a's plan was evicted, and its preparation with it"
    );
    program::set_plan_cache_capacity(PLAN_CACHE_CAPACITY);
}

#[test]
fn concurrent_cold_runs_all_equal_the_standalone_run() {
    let _g = fresh_cache();
    let builds: [Build; 2] = [|| alias_qft(10), sparse_ghz30];
    for build in builds {
        let (circuit, base) = build();
        let config = seeded(&base, 17);
        let golden = cold(&circuit, &config);
        clear_plan_cache();
        seen_once(&circuit, &config);
        let threads = 8;
        let barrier = Barrier::new(threads);
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        outcome(&run_trajectories(&circuit, &config).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &outcomes {
            assert_eq!(o, &golden);
        }
        assert!(run_trajectories(&circuit, &config).unwrap().prep_hit());
        assert_bounded();
    }
}

#[test]
fn a_one_off_run_leaves_nothing_behind() {
    let _g = fresh_cache();
    let (circuit, base) = alias_qft(8);
    let config = seeded(&base, 9);
    let golden = outcome(&run_trajectories(&circuit, &config).unwrap());
    let once = plan_cache_stats();
    assert_eq!((once.entries, once.prep_bytes), (0, 0), "asked once");
    // asked again after the first run let go: lowered and prepared once
    // more, and kept
    let again = run_trajectories(&circuit, &config).unwrap();
    assert!(!again.prep_hit());
    let twice = plan_cache_stats();
    assert_eq!(twice.misses, once.misses + 1);
    assert_eq!((twice.entries, twice.prep_bytes), (1, 16 * 8));
    // from then on the plan and its preparation are hits
    let third = run_trajectories(&circuit, &config).unwrap();
    assert!(third.prep_hit());
    assert_eq!(plan_cache_stats().misses, twice.misses);
    assert_eq!(outcome(&again), golden);
    assert_eq!(outcome(&third), golden);
}
