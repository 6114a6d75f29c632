//! Differential suite: the Pauli-frame sampler must be statistically
//! indistinguishable from the state-vector trajectory engine on every
//! frame-eligible workload — random Clifford circuits with mid-circuit
//! measurements in all three bases, resets, fences, and every Pauli
//! noise channel. A two-sample chi-square compares the sampled record
//! distributions; bitwise legs pin the determinism contract (results
//! independent of batch width and parallelism); routing legs prove
//! non-Clifford circuits and the `Reference::NoFrames` opt-out stay on the old
//! engines; and `logical_error_rate` legs check the flagship QEC
//! workload against both the trajectory engine (small distance) and
//! the analytic binomial curve (large distance, where only the frame
//! sampler can realistically run).

mod common;

use common::{assert_distribution, clifford_measured_circuit, Expected};
use proptest::prelude::*;
use qclab::prelude::*;
use qclab_algorithms::qec::{
    analytic_logical_error_rate, logical_error_rate, majority_decode, repetition_code_circuit,
    InjectedError,
};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, Reference, ShotPath, TrajectoryConfig,
};

const N: usize = 4;

/// Strategy over a Pauli channel with a probability fat enough to
/// exercise the injection masks.
fn channel() -> impl Strategy<Value = PauliChannel> {
    (0.01f64..0.25, 0u8..3).prop_map(|(p, kind)| match kind {
        0 => PauliChannel::BitFlip(p),
        1 => PauliChannel::PhaseFlip(p),
        _ => PauliChannel::Depolarizing(p),
    })
}

/// Strategy over a noise spec with at least one live channel (noiseless
/// requests never reach the frame engine).
fn noise_spec() -> impl Strategy<Value = NoiseSpec> {
    let maybe = || prop_oneof![Just(None), channel().prop_map(Some)];
    (channel(), maybe(), maybe()).prop_map(|(after_gate, idle, before_measure)| NoiseSpec {
        after_gate: Some(after_gate),
        idle,
        before_measure,
    })
}

fn frame_config(seed: u64, shots: u64, noise: NoiseSpec) -> TrajectoryConfig {
    TrajectoryConfig {
        seed,
        shots,
        noise,
        ..TrajectoryConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// The headline differential property: on random Clifford+noise
    /// circuits (mid-circuit measurements in all three bases, resets,
    /// fences included), frame-sampled records and state-vector
    /// trajectory records follow the same distribution.
    #[test]
    fn frame_counts_match_trajectory_counts(
        c in clifford_measured_circuit(N, 14),
        noise in noise_spec(),
        seed in 0u64..1 << 16,
    ) {
        let shots = 1200u64;
        let frames = run_trajectories(&c, &frame_config(seed, shots, noise)).unwrap();
        prop_assert_eq!(frames.path(), ShotPath::PauliFrame);
        prop_assert_eq!(frames.total_counts(), shots);
        // independent seed stream on the state-vector engine: the two
        // samples must agree in distribution, not bit for bit
        let traj = run_trajectories(&c, &TrajectoryConfig {
            reference: Reference::NoFrames,
            ..frame_config(seed ^ 0x5EED, shots, noise)
        }).unwrap();
        prop_assert!(traj.path() != ShotPath::PauliFrame);
        assert_distribution(
            frames.counts(),
            Expected::Sample(traj.counts()),
            &format!("frame vs trajectory, trajectory sample {:?}", traj.counts()),
        );
    }

    /// Bitwise determinism: batch width and parallel fan-out are pure
    /// execution knobs — counts and injected-error totals are identical
    /// at widths 1/3/64/1000, serial and parallel.
    #[test]
    fn frame_results_are_bitwise_identical_across_batch_widths(
        c in clifford_measured_circuit(N, 12),
        noise in noise_spec(),
        seed in 0u64..1 << 16,
    ) {
        let base = frame_config(seed, 400, noise);
        let fan_out = |allow_parallel| KernelConfig { allow_parallel, ..KernelConfig::default() };
        let reference = run_trajectories(&c, &TrajectoryConfig {
            shot_batch: 1,
            kernel: fan_out(false),
            ..base.clone()
        }).unwrap();
        prop_assert_eq!(reference.path(), ShotPath::PauliFrame);
        for width in [3usize, 64, 1000] {
            for parallel in [false, true] {
                let run = run_trajectories(&c, &TrajectoryConfig {
                    shot_batch: width,
                    kernel: fan_out(parallel),
                    ..base.clone()
                }).unwrap();
                prop_assert_eq!(run.counts(), reference.counts(),
                    "width {width} parallel {parallel} diverged");
                prop_assert_eq!(run.injected_errors(), reference.injected_errors());
            }
        }
    }

    /// One non-Clifford gate keeps a noisy run on the state-vector
    /// engines, and the `Reference::NoFrames` opt-out never changes what the
    /// state-vector engine computes.
    #[test]
    fn non_clifford_circuits_route_to_the_state_vector_engine(
        c in clifford_measured_circuit(N, 8),
        noise in noise_spec(),
        seed in 0u64..1 << 16,
    ) {
        let mut c = c;
        c.push_back(TGate::new(0));
        c.push_back(Measurement::z(0));
        let on = run_trajectories(&c, &frame_config(seed, 64, noise)).unwrap();
        prop_assert!(on.path() != ShotPath::PauliFrame,
            "non-Clifford circuit took the frame path");
        let off = run_trajectories(&c, &TrajectoryConfig {
            reference: Reference::NoFrames,
            ..frame_config(seed, 64, noise)
        }).unwrap();
        // same engine either way: bit-identical
        prop_assert_eq!(on.counts(), off.counts());
        prop_assert_eq!(on.path(), off.path());
    }
}

/// The frame opt-out (`Reference::NoFrames` — a library value; the CLI
/// has no flag for it) pins the state-vector engine even on
/// frame-eligible circuits.
#[test]
fn frames_opt_out_falls_back_to_the_trajectory_engine() {
    let mut bell = QCircuit::new(2);
    bell.push_back(Hadamard::new(0));
    bell.push_back(CNOT::new(0, 1));
    bell.push_back(Measurement::z(0));
    bell.push_back(Measurement::z(1));
    let noise = NoiseSpec {
        after_gate: Some(PauliChannel::Depolarizing(0.05)),
        ..NoiseSpec::default()
    };
    let on = run_trajectories(&bell, &frame_config(5, 256, noise)).unwrap();
    assert_eq!(on.path(), ShotPath::PauliFrame);
    let off = run_trajectories(
        &bell,
        &TrajectoryConfig {
            reference: Reference::NoFrames,
            ..frame_config(5, 256, noise)
        },
    )
    .unwrap();
    assert_eq!(off.path(), ShotPath::PerShot);
}

/// Witness mechanics: random measurement outcomes stay independent per
/// shot (a naive frame sampler freezes them to the reference run), and
/// correlations survive — a noisy Bell pair splits ~50/50 between
/// `00`/`11` with only the readout-flip crossover populating `01`/`10`.
#[test]
fn random_measurements_keep_per_shot_randomness_and_correlations() {
    let mut bell = QCircuit::new(2);
    bell.push_back(Hadamard::new(0));
    bell.push_back(CNOT::new(0, 1));
    bell.push_back(Measurement::z(0));
    bell.push_back(Measurement::z(1));
    let shots = 40_000u64;
    let p = 0.01;
    let r = run_trajectories(
        &bell,
        &frame_config(
            9,
            shots,
            NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(p)),
                ..NoiseSpec::default()
            },
        ),
    )
    .unwrap();
    assert_eq!(r.path(), ShotPath::PauliFrame);
    let f = |s: &str| r.frequency(s);
    // five-sigma binomial bounds
    let tol = 5.0 * (0.5f64 * 0.5 / shots as f64).sqrt();
    assert!((f("00") - 0.5 * (1.0 - p) * (1.0 - p) - 0.5 * p * p).abs() < tol + 0.01);
    assert!((f("00") - f("11")).abs() < 2.0 * tol);
    // crossover bins exist but stay near 2·p·(1−p)·½·2 = p(1−p)
    let cross = f("01") + f("10");
    assert!((cross - 2.0 * p * (1.0 - p)).abs() < tol + 0.005);
}

/// Deterministic injection accounting: a certain channel fires at every
/// site, so the injected-error count is exactly `shots × sites`.
#[test]
fn injected_error_stats_are_exact_for_certain_channels() {
    let mut c = QCircuit::new(2);
    c.push_back(Hadamard::new(0));
    c.push_back(CNOT::new(0, 1));
    c.push_back(Measurement::z(0));
    c.push_back(CircuitItem::Reset(1));
    c.push_back(Measurement::z(1));
    let shots = 257u64; // deliberately not a multiple of the lane width
    let r = run_trajectories(
        &c,
        &frame_config(
            3,
            shots,
            NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(1.0)),
                ..NoiseSpec::default()
            },
        ),
    )
    .unwrap();
    assert_eq!(r.path(), ShotPath::PauliFrame);
    // three before-measure sites: two measurements plus one reset
    assert_eq!(r.injected_errors(), 3 * shots);
    // the flip before the reset is absorbed by the reset, so the
    // second record bit (measured after the reset) is its certain
    // flip: always 1. The first bit is the inverted Bell coin — both
    // values must appear (per-shot randomness survives the certain
    // channel).
    assert!(r.counts().keys().all(|rec| rec.ends_with('1')));
    assert!(r.counts().contains_key("01") && r.counts().contains_key("11"));
    assert_eq!(r.counts().len(), 2);
}

/// Small-distance QEC leg: the (frame-routed) `logical_error_rate` and
/// a frames-off trajectory run of the same circuit both land within
/// five sigma of the analytic binomial rate.
#[test]
fn logical_error_rate_agrees_with_the_trajectory_engine_at_small_distance() {
    let (d, p, shots) = (3usize, 0.15f64, 4000u64);
    let analytic = analytic_logical_error_rate(d, p);
    let tol = 5.0 * (analytic * (1.0 - analytic) / shots as f64).sqrt();

    let frame_rate = logical_error_rate(d, p, shots, 11).unwrap();
    assert!(
        (frame_rate - analytic).abs() < tol,
        "frame rate {frame_rate} vs analytic {analytic} (tol {tol})"
    );

    let circuit = repetition_code_circuit(d, InjectedError::None);
    let traj = run_trajectories(
        &circuit,
        &TrajectoryConfig {
            reference: Reference::NoFrames,
            ..frame_config(
                11,
                shots,
                NoiseSpec {
                    before_measure: Some(PauliChannel::BitFlip(p)),
                    ..NoiseSpec::default()
                },
            )
        },
    )
    .unwrap();
    assert!(traj.path() != ShotPath::PauliFrame);
    let failures: u64 = traj
        .counts()
        .iter()
        .filter(|(rec, _)| majority_decode(rec) == 1)
        .map(|(_, &n)| n)
        .sum();
    let traj_rate = failures as f64 / traj.shots() as f64;
    assert!(
        (traj_rate - analytic).abs() < tol,
        "trajectory rate {traj_rate} vs analytic {analytic} (tol {tol})"
    );
}

/// Large-distance QEC leg: at distance 25 the state-vector engine would
/// need a 2^49-amplitude register per shot — the frame sampler runs
/// 50 000 shots in milliseconds and matches
/// `Σ_{k>d/2} C(d,k) p^k (1−p)^{d−k}` to five sigma.
#[test]
fn logical_error_rate_matches_the_analytic_curve_at_large_distance() {
    let (d, p, shots) = (25usize, 0.35f64, 50_000u64);
    let analytic = analytic_logical_error_rate(d, p);
    assert!(analytic > 0.01, "test needs a resolvable rate");
    let rate = logical_error_rate(d, p, shots, 23).unwrap();
    let tol = 5.0 * (analytic * (1.0 - analytic) / shots as f64).sqrt();
    assert!(
        (rate - analytic).abs() < tol,
        "frame rate {rate} vs analytic {analytic} (tol {tol})"
    );
}

/// The capability acceptance: a 128-qubit noisy Clifford sampling run
/// completes on the frame engine while the state-vector engines refuse
/// the same request outright.
#[test]
fn wide_clifford_run_completes_where_the_state_vector_engines_refuse() {
    let n = 128;
    let mut ghz = QCircuit::new(n);
    ghz.push_back(Hadamard::new(0));
    for q in 1..n {
        ghz.push_back(CNOT::new(0, q));
    }
    for q in 0..n {
        ghz.push_back(Measurement::z(q));
    }
    let noise = NoiseSpec {
        after_gate: Some(PauliChannel::Depolarizing(0.001)),
        ..NoiseSpec::default()
    };
    let r = run_trajectories(&ghz, &frame_config(7, 4096, noise)).unwrap();
    assert_eq!(r.path(), ShotPath::PauliFrame);
    assert_eq!(r.total_counts(), 4096);
    assert_eq!(r.nb_qubits(), n);
    // every record is 128 bits; without noise it would be all-0 or
    // all-1 — depolarizing noise perturbs a few shots but the GHZ
    // correlation dominates
    let majority: u64 = r
        .counts()
        .iter()
        .filter(|(rec, _)| rec.chars().all(|c| c == '0') || rec.chars().all(|c| c == '1'))
        .map(|(_, &n)| n)
        .sum();
    assert!(majority > 2048, "GHZ correlation lost: {majority}/4096");

    let refused = run_trajectories(
        &ghz,
        &TrajectoryConfig {
            reference: Reference::NoFrames,
            ..frame_config(7, 4096, noise)
        },
    );
    assert!(
        matches!(
            refused,
            Err(qclab_core::QclabError::ResourceExhausted { .. })
        ),
        "the dense engine admitted a 128-qubit register"
    );
}

/// Admission charges what a batch holds: its outcome words grow with
/// the measurement count, not the register, so a deep
/// syndrome-extraction-shaped circuit at a batch as wide as the run is
/// refused where a guard that counted only the bit-planes would have
/// allocated it — and runs at the default width under the same cap.
#[test]
fn a_deep_measurement_circuit_at_a_huge_batch_is_refused_not_allocated() {
    let measurements = 4096usize;
    let mut c = QCircuit::new(2);
    c.push_back(CNOT::new(0, 1));
    for m in 0..measurements {
        c.push_back(Measurement::z(m % 2));
    }
    let shots = 1u64 << 18;
    // one batch of every shot is 4096 words wide: 128 MiB of outcome
    // words beside 128 KiB of planes and 16 MiB of per-lane state
    let config = |shot_batch| TrajectoryConfig {
        shot_batch,
        limits: qclab_core::sim::guard::ResourceLimits {
            max_qubits: None,
            max_state_bytes: 32 << 20,
        },
        ..frame_config(
            3,
            shots,
            NoiseSpec {
                after_gate: Some(PauliChannel::BitFlip(0.01)),
                ..NoiseSpec::default()
            },
        )
    };
    let refused = run_trajectories(&c, &config(shots as usize));
    assert!(
        matches!(
            refused,
            Err(qclab_core::QclabError::ResourceExhausted {
                bytes_needed: Some(bytes),
                ..
            }) if bytes > 128 << 20
        ),
        "a 128 MiB batch passed a 32 MiB cap: {:?}",
        refused.map(|r| r.path())
    );
    let run = run_trajectories(&c, &config(TrajectoryConfig::default().shot_batch)).unwrap();
    assert_eq!(run.path(), ShotPath::PauliFrame);
    assert_eq!(run.total_counts(), shots);
}
