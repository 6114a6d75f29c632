//! Property tests: the bytecode stream — the one executable form of the
//! dense engine — must be **bit-identical** to a per-op walk over the
//! schedule, not approximately equal. The oracle is
//! [`common::reference_state`]: `program.ops()` applied one gate at a
//! time through the public per-gate kernel entry, which prepares each
//! operand on the spot — no stream, no windows, nothing cached. Both
//! run the same kernels on the same operands in the same order, so
//! every amplitude must agree with exact `==`, through both consumers
//! of the stream: the branching `simulate` and the per-shot
//! `ShotState::step` (reached through `run_single_trajectory`), with
//! the locality pass on and off and at any watchdog cadence — a window
//! is cut where a check falls due, so every check sees the state the
//! per-gate walk would have shown it.
//!
//! The oracle walks unitary programs. Random circuits keep their
//! barriers but have measurements and resets turned into barriers for
//! these legs; the collapse arithmetic under a permuted layout is
//! pinned by `remap_equivalence.rs` (remap on `==` remap off) and
//! against the Kron oracle below and in `backend_equivalence.rs`.
//!
//! The shot-batched trajectory dispatcher: each batch lane owns the
//! per-(seed, shot) RNG stream the serial engine would use, so counts,
//! injected-error totals, norm-watchdog stats and observable
//! expectations must be `==` across any batch width.

mod common;

use common::{gate, measured_circuit, nested_circuit, reference_state};
use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, ProgramOp};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::kron;
use qclab_core::sim::trajectory::{
    run_single_trajectory, run_trajectories, NoiseSpec, PauliChannel, Reference, ShotPath,
    TrajectoryConfig, WatchdogConfig,
};
use qclab_core::CircuitItem;
use qclab_math::CVec;
use qclab_testkit::prelude::*;

/// Register size for the dense equivalence properties: small enough to
/// keep thousands of cases fast, large enough for multi-qubit kernels,
/// control masks and the locality pass to all engage.
const N: usize = 8;

fn kernel(remap: bool) -> KernelConfig {
    KernelConfig {
        remap,
        ..KernelConfig::default()
    }
}

fn opts(remap: bool) -> SimOptions {
    SimOptions {
        kernel: kernel(remap),
        ..SimOptions::default()
    }
}

/// `c` with every measurement and reset turned into a barrier on its
/// qubit: the unitary program the oracle can walk, fences in place.
fn unitary_skeleton(c: &QCircuit) -> QCircuit {
    let mut u = QCircuit::new(c.nb_qubits());
    for item in c.items() {
        u.push_back(match item {
            CircuitItem::Measurement(m) => CircuitItem::Barrier(vec![m.qubit()]),
            CircuitItem::Reset(q) => CircuitItem::Barrier(vec![*q]),
            other => other.clone(),
        });
    }
    u
}

/// `==` on every amplitude.
fn assert_state_identical(got: &CVec, want: &CVec, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: dimension diverged");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            a.re == b.re && a.im == b.im,
            "{what}: amplitude {i} diverged: {a:?} vs {b:?}"
        );
    }
}

/// The absolute watchdog cadence over one walk of `plan`: one check per
/// `check_every` gates plus the end-of-shot check over a remainder.
/// Fewer means a window swallowed a check that fell due inside it.
fn due_checks(plan: &qclab_core::program::CompiledProgram, check_every: usize) -> u64 {
    let gates = plan
        .ops()
        .iter()
        .filter(|op| matches!(op, ProgramOp::Gate(_)))
        .count();
    (gates / check_every + usize::from(gates % check_every > 0)) as u64
}

/// Both consumers of the stream against the per-op oracle on the
/// unitary skeleton of `c`: the branching executor, and the shot
/// executor at every watchdog cadence (default tolerance, so no check
/// ever renormalizes and the final state is comparable).
fn run_both(c: &QCircuit, remap: bool, what: &str) {
    let u = unitary_skeleton(c);
    let init = CVec::basis_state(1 << u.nb_qubits(), 0);
    let plan = program::compile(&u, &PlanOptions::from(&kernel(remap)));
    let want = reference_state(&plan, &init);
    let sim = u.simulate_with(&init, &opts(remap)).unwrap();
    assert_state_identical(sim.states()[0], &want, &format!("{what}: simulate"));
    for check_every in [1usize, 8, 64] {
        let config = TrajectoryConfig {
            kernel: kernel(remap),
            watchdog: WatchdogConfig {
                check_every,
                ..WatchdogConfig::default()
            },
            ..TrajectoryConfig::default()
        };
        let shot = run_single_trajectory(&u, &init, &config, 0).unwrap();
        let leg = format!("{what}: shot, check_every {check_every}");
        assert_state_identical(&shot.state, &want, &leg);
        assert_eq!(shot.norm.checks, due_checks(&plan, check_every), "{leg}");
    }
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
        // this suite pins the state-vector shot engines (serial vs
        // batched); all-Clifford draws would otherwise route to the
        // frame sampler
        reference: Reference::NoFrames,
        shot_batch: batch,
        ..TrajectoryConfig::default()
    }
}

/// A noiseless run (so the alias and fork paths engage). The zero
/// tolerance makes every check with any drift renormalize, so counts
/// and watchdog statistics are sensitive to where the checks fall.
fn prefix_config(seed: u64, remap: bool, check_every: usize) -> TrajectoryConfig {
    TrajectoryConfig {
        seed,
        shots: 24,
        kernel: kernel(remap),
        watchdog: WatchdogConfig {
            check_every,
            tol: 0.0,
        },
        ..TrajectoryConfig::default()
    }
}

/// The one-time prefix of the sampled paths at every watchdog cadence,
/// locality pass on and off. Whichever path shares the evolution — the
/// terminal table or the fork snapshot — must reproduce the plain
/// per-shot engine ([`Reference::NoSharing`]: every shot walks the whole
/// schedule itself) exactly: counts, injected errors, watchdog
/// statistics. On the table path every shot reports the one walk of the
/// prefix, which must perform exactly the checks that fall due.
/// Returns the path taken.
fn assert_prefix_bit_identical(c: &QCircuit, seed: u64) -> ShotPath {
    let mut path = ShotPath::PerShot;
    for remap in [true, false] {
        for check_every in [1usize, 8, 64] {
            let config = prefix_config(seed, remap, check_every);
            let fast = run_trajectories(c, &config).unwrap();
            let what = format!("remap {remap}, check_every {check_every}");
            path = fast.path();
            if let ShotPath::AliasSampled { .. } = path {
                let plan = program::compile(c, &PlanOptions::from(&config.kernel));
                let due = due_checks(&plan, check_every) * config.shots;
                assert_eq!(fast.norm_stats().checks, due, "checks @ {what}");
            }
            let per_shot = TrajectoryConfig {
                reference: Reference::NoSharing,
                ..config.clone()
            };
            let slow = run_trajectories(c, &per_shot).unwrap();
            assert_eq!(slow.path(), ShotPath::PerShot);
            assert_eq!(fast.counts(), slow.counts(), "counts @ {what}");
            assert_eq!(
                fast.injected_errors(),
                slow.injected_errors(),
                "injected errors @ {what}"
            );
            assert_eq!(fast.norm_stats(), slow.norm_stats(), "norm stats @ {what}");
        }
    }
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// Noiseless random circuits route to the alias, fork or per-shot
    /// path by their shape; whichever it is, the one-time prefix leaves
    /// what the per-shot engine's own walk leaves.
    #[test]
    fn sampled_prefix_is_bit_identical(c in measured_circuit(N, 16), seed in 0u64..1000) {
        assert_prefix_bit_identical(&c, seed);
    }

    /// Default engine configuration: the stream is bit-identical to the
    /// per-op walk on circuits with fences.
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
    /// the compiled stream must match the walk across that relabeling.
    #[test]
    fn bytecode_is_bit_identical_with_subcircuits(
        c in nested_circuit(N, || gate(N).prop_map(CircuitItem::Gate)),
    ) {
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
/// bit-identically — including the shot executor's window cuts, whose
/// check count is pinned absolutely (12 · 35 gates at cadences 1, 8
/// and 64).
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

    let plan = program::compile(&c, &PlanOptions::default());
    let bc = plan.bytecode();
    assert!(
        bc.stream_len() < plan.ops().len(),
        "a tile-resident chain must compress into windows: {} instrs for {} ops",
        bc.stream_len(),
        plan.ops().len()
    );
    for remap in [true, false] {
        run_both(&c, remap, "deep sweepable chain");
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
    let plan = program::compile(&prefix, &PlanOptions::default());
    assert!(
        plan.bytecode().stream_len() < plan.ops().len(),
        "the prefix must contain windows"
    );
    for remap in [true, false] {
        run_both(&prefix, remap, "windowed prefix");
    }

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
/// executor must branch/collapse at exactly the same points as the Kron
/// oracle (same records, probabilities to rounding), and identically —
/// `==` — whether or not the layout is permuted when it does.
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
    let init = CVec::basis_state(1 << N, 0);
    let on = c.simulate_with(&init, &opts(true)).unwrap();
    let off = c.simulate_with(&init, &opts(false)).unwrap();
    assert_eq!(on.results(), off.results());
    assert_eq!(on.probabilities(), off.probabilities());
    for (a, b) in on.states().iter().zip(off.states()) {
        assert_state_identical(a, b, "remap on vs off");
    }
    let kron = kron::simulate(&c, &init, &SimOptions::default()).unwrap();
    assert_eq!(on.results(), kron.results());
    for (p, q) in on.probabilities().iter().zip(kron.probabilities()) {
        assert!((p - q).abs() < 1e-12, "branch probability {p} vs {q}");
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
