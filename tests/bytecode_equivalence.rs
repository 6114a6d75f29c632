//! Property tests: the bytecode execution engine must be
//! **bit-identical** to the op-schedule interpreter — not approximately
//! equal. Both paths run [`kernel::apply_prepared`] on operands produced
//! by the same `prepare_gate` classification, in the same op order, with
//! the same runtime flags; the bytecode path merely moves preparation
//! out of the hot loop. So `bytecode: true` and `bytecode: false` must
//! agree with exact `==` on branch records, probabilities and every
//! amplitude — over random circuits mixing mid-circuit measurements
//! (all three bases), resets, fences and nested sub-circuits, with the
//! locality pass on and off.
//!
//! The shot-batched trajectory dispatcher gets the same treatment: each
//! batch lane owns the per-(seed, shot) RNG stream the serial engine
//! would use, so counts, injected-error totals, norm-watchdog stats and
//! observable expectations must be `==` across any batch width.
//!
//! And so does the one-time prefix of the sampled shot paths (alias and
//! fork), which dispatches the windowed bytecode stream: counts,
//! injected-error totals and norm-watchdog stats must be `==` to the
//! per-gate interpreter prefix at any watchdog cadence — a window is cut
//! where a check falls due, so every check sees the same state.

mod common;

use common::{gate, measured_circuit};
use proptest::prelude::*;
use qclab::prelude::*;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig, WatchdogConfig,
};
use qclab_core::CircuitItem;
use qclab_math::CVec;

/// Register size for the dense equivalence properties: small enough to
/// keep thousands of cases fast, large enough for multi-qubit kernels,
/// control masks and the locality pass to all engage.
const N: usize = 8;

/// Honour `QCLAB_PROPTEST_CASES` to run more (or fewer) cases per
/// property (the hardened CI job raises it).
fn fuzz_cases() -> u32 {
    std::env::var("QCLAB_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A circuit with a nested sub-circuit (random offset) spliced into the
/// middle: the flattener relabels through the offset before lowering,
/// and the bytecode stream must reflect the flattened schedule.
fn nested_circuit() -> impl Strategy<Value = QCircuit> {
    (
        prop::collection::vec(gate(N), 0..6),
        prop::collection::vec(gate(3), 1..6),
        0..N - 2,
        prop::collection::vec(gate(N), 0..6),
    )
        .prop_map(|(before, inner_gates, offset, after)| {
            let mut inner = QCircuit::new(3);
            for g in inner_gates {
                inner.push_back(g);
            }
            let mut c = QCircuit::new(N);
            for g in before {
                c.push_back(g);
            }
            c.push_back(CircuitItem::SubCircuit {
                offset,
                circuit: inner,
            });
            for g in after {
                c.push_back(g);
            }
            c
        })
}

fn opts(bytecode: bool, remap: bool) -> SimOptions {
    SimOptions {
        backend: Backend::Kernel,
        kernel: KernelConfig {
            bytecode,
            remap,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    }
}

/// Exact equality of two simulations: identical branch records,
/// bit-identical probabilities, and `==` on every amplitude.
fn assert_bit_identical(a: &Simulation, b: &Simulation, what: &str) {
    assert_eq!(a.results(), b.results(), "{what}: branch records diverged");
    assert_eq!(
        a.probabilities(),
        b.probabilities(),
        "{what}: branch probabilities are not bit-identical"
    );
    let (sa, sb) = (a.states(), b.states());
    assert_eq!(sa.len(), sb.len(), "{what}: branch count diverged");
    for (bi, (x, y)) in sa.iter().zip(&sb).enumerate() {
        for (i, (za, zb)) in x.iter().zip(y.iter()).enumerate() {
            assert!(
                za.re == zb.re && za.im == zb.im,
                "{what}: branch {bi} amplitude {i} diverged: {za:?} vs {zb:?}"
            );
        }
    }
}

fn run_both(c: &QCircuit, remap: bool, what: &str) {
    let init = CVec::basis_state(1 << N, 0);
    let byte = c.simulate_with(&init, &opts(true, remap)).unwrap();
    let interp = c.simulate_with(&init, &opts(false, remap)).unwrap();
    assert_bit_identical(&byte, &interp, what);
}

/// A noisy trajectory configuration forced onto the per-shot engine
/// (the only path the batch dispatcher accelerates) at the given batch
/// width.
fn shot_config(seed: u64, shots: u64, batch: usize) -> TrajectoryConfig {
    TrajectoryConfig {
        seed,
        shots,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.05)),
            idle: Some(PauliChannel::PhaseFlip(0.01)),
            before_measure: Some(PauliChannel::BitFlip(0.02)),
        },
        fast_path: false,
        // this suite pins the state-vector shot engines (serial vs
        // batched); all-Clifford draws would otherwise route to the
        // frame sampler
        frames: false,
        shot_batch: batch,
        ..TrajectoryConfig::default()
    }
}

/// A noiseless run (so the alias and fork paths engage) with the
/// prefix on the bytecode stream or on the interpreter. The zero
/// tolerance makes every check with any drift renormalize, so the
/// watchdog statistics are sensitive to the last bit of the state.
fn prefix_config(seed: u64, bytecode: bool, remap: bool, check_every: usize) -> TrajectoryConfig {
    TrajectoryConfig {
        seed,
        shots: 24,
        kernel: KernelConfig {
            bytecode,
            remap,
            ..KernelConfig::default()
        },
        watchdog: WatchdogConfig {
            check_every,
            tol: 0.0,
        },
        ..TrajectoryConfig::default()
    }
}

/// Bytecode prefix vs interpreter prefix at every watchdog cadence, with
/// the locality pass on and off; returns the path taken.
fn assert_prefix_bit_identical(c: &QCircuit, seed: u64) -> ShotPath {
    let mut path = ShotPath::PerShot;
    for remap in [true, false] {
        for check_every in [1usize, 8, 64] {
            let byte = run_trajectories(c, &prefix_config(seed, true, remap, check_every)).unwrap();
            let interp =
                run_trajectories(c, &prefix_config(seed, false, remap, check_every)).unwrap();
            let what = format!("remap {remap}, check_every {check_every}");
            assert_eq!(byte.path(), interp.path(), "path @ {what}");
            assert_eq!(byte.counts(), interp.counts(), "counts @ {what}");
            assert_eq!(
                byte.injected_errors(),
                interp.injected_errors(),
                "injected errors @ {what}"
            );
            assert_eq!(
                byte.norm_stats(),
                interp.norm_stats(),
                "norm stats @ {what}"
            );
            path = byte.path();
        }
    }
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Noiseless random circuits route to the alias, fork or per-shot
    /// path by their shape; whichever it is, the prefix on the bytecode
    /// stream leaves the same counts and watchdog statistics as the
    /// interpreter prefix.
    #[test]
    fn sampled_prefix_is_bit_identical(c in measured_circuit(N, 16), seed in 0u64..1000) {
        assert_prefix_bit_identical(&c, seed);
    }

    /// Default engine configuration: bytecode dispatch is bit-identical
    /// on circuits with mid-circuit measurements, resets and fences.
    #[test]
    fn bytecode_is_bit_identical_default_config(c in measured_circuit(N, 16)) {
        run_both(&c, true, "default config");
    }

    /// With the locality pass off, no Permute instructions appear and
    /// window grouping follows the unmapped schedule — still identical.
    #[test]
    fn bytecode_is_bit_identical_without_remap(c in measured_circuit(N, 16)) {
        run_both(&c, false, "remap off");
    }

    /// Nested sub-circuits flatten through their offset before lowering;
    /// the compiled stream must match the interpreter across that
    /// relabeling.
    #[test]
    fn bytecode_is_bit_identical_with_subcircuits(c in nested_circuit()) {
        run_both(&c, true, "nested sub-circuits");
        run_both(&c, false, "nested sub-circuits, remap off");
    }

    /// Shot batching is pure scheduling: per-shot results depend only on
    /// `(seed, shot)`, never on which batch a shot landed in, so counts,
    /// injected-error totals and watchdog stats are `==` across widths.
    #[test]
    fn batched_shots_are_bit_identical_to_serial(
        c in measured_circuit(6, 12),
        seed in 0u64..1000,
    ) {
        let serial = run_trajectories(&c, &shot_config(seed, 24, 1)).unwrap();
        prop_assert_eq!(serial.path(), ShotPath::PerShot);
        for batch in [3usize, 8, 64] {
            let batched = run_trajectories(&c, &shot_config(seed, 24, batch)).unwrap();
            prop_assert_eq!(serial.counts(), batched.counts(), "counts @ batch {}", batch);
            prop_assert_eq!(
                serial.injected_errors(),
                batched.injected_errors(),
                "injected errors @ batch {}",
                batch
            );
            prop_assert_eq!(
                serial.norm_stats(),
                batched.norm_stats(),
                "norm stats @ batch {}",
                batch
            );
        }
    }
}

/// A deep circuit of tile-resident gates on a 14-qubit register (the
/// cache-blocked sweep needs `n` above the 12-qubit tile): the lowered
/// stream must actually collapse runs into Window instructions (guards
/// against the grouping rule silently never firing) and still execute
/// bit-identically.
#[test]
fn windows_form_and_stay_bit_identical() {
    let n = 14;
    let mut c = QCircuit::new(n);
    // qubits 2..n have index shifts inside the sweep tile at n = 14
    for rep in 0..12 {
        for q in 2..n {
            c.push_back(Hadamard::new(q));
            c.push_back(RotationZ::new(q, 0.1 * (rep * n + q) as f64));
        }
        for q in 2..n - 1 {
            c.push_back(CNOT::new(q, q + 1));
        }
    }
    c.push_back(Measurement::z(2));

    let plan = c.compile_with(&qclab_core::program::PlanOptions::default());
    let bc = plan.bytecode();
    assert!(
        bc.stream_len() < plan.ops().len(),
        "a tile-resident chain must compress into windows: {} instrs for {} ops",
        bc.stream_len(),
        plan.ops().len()
    );

    let init = CVec::basis_state(1 << n, 0);
    for remap in [true, false] {
        let byte = c.simulate_with(&init, &opts(true, remap)).unwrap();
        let interp = c.simulate_with(&init, &opts(false, remap)).unwrap();
        assert_bit_identical(&byte, &interp, "deep sweepable chain");
    }
}

/// The prefix leg on a register wide enough for windows to form: runs
/// of tile-resident gates of assorted lengths (so watchdog checks fall
/// due inside windows, at their ends and between them) broken up by
/// gates on the two qubits outside the tile, then a terminal
/// measurement shape (alias path) and a mid-circuit one (fork path).
#[test]
fn windowed_prefix_is_bit_identical_on_alias_and_fork_paths() {
    let n = 14;
    let mut prefix = QCircuit::new(n);
    for rep in 0..6 {
        for q in 2..(2 + 2 * (rep + 1)).min(n - 1) {
            prefix.push_back(Hadamard::new(q));
            prefix.push_back(RotationZ::new(q, 0.1 * (rep * n + q) as f64));
            prefix.push_back(CNOT::new(q, q + 1));
        }
        prefix.push_back(RotationX::new(rep % 2, 0.3 + rep as f64));
        prefix.push_back(CNOT::new(rep % 2, 5 + rep));
    }
    let plan = prefix.compile_with(&qclab_core::program::PlanOptions::default());
    assert!(
        plan.bytecode().stream_len() < plan.ops().len(),
        "the prefix must contain windows"
    );

    let mut alias = prefix.clone();
    alias.push_back(Measurement::z(0));
    alias.push_back(Measurement::x(7));
    alias.push_back(Measurement::y(13));
    assert!(matches!(
        assert_prefix_bit_identical(&alias, 3),
        ShotPath::AliasSampled { .. }
    ));

    let mut fork = prefix;
    fork.push_back(Measurement::z(4));
    fork.push_back(Hadamard::new(4));
    fork.push_back(CNOT::new(4, 0));
    fork.push_back(Measurement::x(0));
    assert!(matches!(
        assert_prefix_bit_identical(&fork, 4),
        ShotPath::Forked { .. }
    ));
}

/// Mid-circuit measurements and resets interleaved with gates: the
/// executor must branch/collapse at exactly the same points as the
/// interpreter, including under a permuted layout.
#[test]
fn measure_reset_heavy_circuit_is_bit_identical() {
    let mut c = QCircuit::new(N);
    for rep in 0..6 {
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, N - 1));
        c.push_back(RotationX::new(N - 1, 0.4 + rep as f64));
        c.push_back(Measurement::x(0));
        c.push_back(CircuitItem::Barrier(vec![0, N - 1]));
        c.push_back(CircuitItem::Reset(N - 1));
        c.push_back(Measurement::y(1));
        c.push_back(CNOT::new(1, 2));
    }
    run_both(&c, true, "measure/reset heavy");
    run_both(&c, false, "measure/reset heavy, remap off");
}

/// Fixed-seed determinism across every supported batch width, including
/// widths that do not divide the shot count, plus the width the result
/// actually reports.
#[test]
fn batch_width_never_leaks_into_results() {
    let mut c = QCircuit::new(6);
    for q in 0..6 {
        c.push_back(Hadamard::new(q));
    }
    for q in 0..5 {
        c.push_back(CNOT::new(q, q + 1));
    }
    c.push_back(Measurement::z(0));
    c.push_back(CircuitItem::Reset(3));
    c.push_back(Hadamard::new(3));
    c.push_back(Measurement::z(3));
    c.push_back(Measurement::z(5));

    for seed in [1u64, 7, 42] {
        let serial = run_trajectories(&c, &shot_config(seed, 100, 1)).unwrap();
        assert_eq!(serial.shot_batch(), 1);
        for batch in [3usize, 8, 64] {
            let batched = run_trajectories(&c, &shot_config(seed, 100, batch)).unwrap();
            assert_eq!(batched.shot_batch(), batch as u64, "seed {seed}");
            assert_eq!(
                serial.counts(),
                batched.counts(),
                "seed {seed} batch {batch}"
            );
            assert_eq!(
                serial.injected_errors(),
                batched.injected_errors(),
                "seed {seed} batch {batch}"
            );
            assert_eq!(
                serial.norm_stats(),
                batched.norm_stats(),
                "seed {seed} batch {batch}"
            );
        }
    }
}

/// Disabling a kernel specialization the bytecode operands were
/// classified under must route execution back to the interpreter (and
/// therefore still produce identical results), not execute mismatched
/// operands.
#[test]
fn specialization_ablations_fall_back_to_the_interpreter() {
    let mut c = QCircuit::new(N);
    for q in 0..N - 1 {
        c.push_back(Hadamard::new(q));
        c.push_back(SwapGate::new(q, q + 1));
        c.push_back(RotationZ::new(q, 0.3 * q as f64));
    }
    c.push_back(Measurement::z(0));
    let init = CVec::basis_state(1 << N, 0);
    let reference = c.simulate_with(&init, &opts(false, true)).unwrap();
    for (diag, swap) in [(false, true), (true, false), (false, false)] {
        let ablated = SimOptions {
            backend: Backend::Kernel,
            kernel: KernelConfig {
                bytecode: true,
                use_diagonal_kernel: diag,
                use_swap_kernel: swap,
                ..KernelConfig::default()
            },
            ..SimOptions::default()
        };
        let sim = c.simulate_with(&init, &ablated).unwrap();
        assert_eq!(
            sim.results(),
            reference.results(),
            "ablation (diag={diag}, swap={swap}) diverged"
        );
        assert_eq!(sim.probabilities(), reference.probabilities());
    }
}
