//! Property tests: the sparse-Kronecker backend (MATLAB QCLAB), the
//! in-place kernel backend (QCLAB++), the kernel backend behind the
//! gate-fusion pre-pass and the zero-noise trajectory sampler must be
//! indistinguishable — a four-way differential oracle over random
//! circuits with measurements, barriers and resets — and all must
//! satisfy the invariants of unitary evolution.

mod common;

use common::{circuit, measured_circuit, state};
use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::kernel::{KernelConfig, PARALLEL_THRESHOLD_QUBITS};
use qclab_core::sim::stabilizer::run_stabilizer;
use qclab_core::sim::trajectory::{self, TrajectoryConfig};
use qclab_core::sim::{kernel, kron};
use qclab_math::rng::Rng;
use qclab_testkit::prelude::*;

const N: usize = 4;

/// [`SimOptions`] for one corner of the differential triangle.
fn opts(fuse: bool, max_fused: usize, parallel: bool) -> SimOptions {
    SimOptions {
        kernel: KernelConfig {
            fuse,
            max_fused_qubits: max_fused,
            allow_parallel: parallel,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    }
}

/// Asserts two simulations have the same branch structure (measurement
/// records, probabilities) and the same per-branch states.
fn assert_sims_agree(a: &Simulation, b: &Simulation, what: &str) {
    assert_eq!(a.results(), b.results(), "{what}: branch records diverged");
    for (pa, pb) in a.probabilities().iter().zip(b.probabilities()) {
        assert!(
            (pa - pb).abs() < 1e-10,
            "{what}: branch probabilities diverged ({pa} vs {pb})"
        );
    }
    for (sa, sb) in a.states().iter().zip(b.states()) {
        assert!(sa.approx_eq(sb, 1e-9), "{what}: branch states diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// Both backends produce identical state vectors on random circuits.
    #[test]
    fn backends_agree_on_random_circuits(c in circuit(N, 12), init in state(N)) {
        let mut a = init.clone();
        let mut b = init;
        for item in c.items() {
            if let CircuitItem::Gate(g) = item {
                kernel::apply_gate(g, &mut a, N);
                kron::apply_gate(g, &mut b, N);
            }
        }
        prop_assert!(a.approx_eq(&b, 1e-10), "backends diverged");
    }

    /// Unitary evolution preserves the norm.
    #[test]
    fn norm_is_preserved(c in circuit(N, 16), init in state(N)) {
        let sim = c.simulate(&init).unwrap();
        prop_assert!((sim.states()[0].norm() - 1.0).abs() < 1e-9);
    }

    /// The adjoint circuit inverts the original.
    #[test]
    fn adjoint_inverts(c in circuit(N, 10), init in state(N)) {
        let mut full = c.clone();
        for item in c.adjoint().unwrap().items() {
            full.push_back(item.clone());
        }
        let sim = full.simulate(&init).unwrap();
        prop_assert!(sim.states()[0].approx_eq(&init, 1e-9));
    }

    /// to_matrix agrees with the simulator on every basis state.
    #[test]
    fn to_matrix_matches_simulation(c in circuit(3, 8)) {
        let m = c.to_matrix().unwrap();
        prop_assert!(m.is_unitary(1e-9));
        for j in 0..8usize {
            let init = CVec::basis_state(8, j);
            let sim = c.simulate(&init).unwrap();
            let col = m.col(j);
            for (i, amp) in sim.states()[0].iter().enumerate() {
                prop_assert!((amp - col[i]).norm() < 1e-9);
            }
        }
    }

    /// The extended sparse unitary of any random gate is unitary and its
    /// dense form matches the kernel's action.
    #[test]
    fn extended_unitary_is_unitary(g in common::gate(N)) {
        let u = kron::extended_unitary(&g, N);
        prop_assert!(u.to_dense().is_unitary(1e-9));
    }

    /// Four-way differential oracle: sparse Kronecker, unfused kernels,
    /// the fusion pre-pass and a zero-noise trajectory must agree on
    /// random circuits that interleave unitary gates with barriers,
    /// measurements and resets. The first three enumerate every branch;
    /// the trajectory samples one, so its record must name an existing
    /// branch and its state must match that branch's state.
    #[test]
    fn four_way_differential(c in measured_circuit(N, 12), init in state(N)) {
        let kron_sim = kron::simulate(&c, &init, &opts(false, 2, false)).unwrap();
        let unfused = c.simulate_with(&init, &opts(false, 2, false)).unwrap();
        let fused = c.simulate_with(&init, &opts(true, 2, false)).unwrap();
        assert_sims_agree(&kron_sim, &unfused, "kron vs unfused kernel");
        assert_sims_agree(&unfused, &fused, "unfused vs fused kernel");

        let tcfg = TrajectoryConfig {
            kernel: KernelConfig {
                fuse: false,
                max_fused_qubits: 2,
                allow_parallel: false,
                ..KernelConfig::default()
            },
            ..TrajectoryConfig::default()
        };
        let t = trajectory::run_single_trajectory(&c, &init, &tcfg, 0).unwrap();
        prop_assert!(t.injected.is_empty(), "zero noise must inject nothing");
        // resets split branches without extending the record, so the
        // record can be shared by several branches: the trajectory must
        // match one of them
        let candidates: Vec<usize> = unfused
            .results()
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == t.record)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(
            !candidates.is_empty(),
            "trajectory record '{}' must name a simulation branch", t.record
        );
        prop_assert!(
            candidates
                .iter()
                .any(|&i| t.state.approx_eq(unfused.states()[i], 1e-9)),
            "trajectory state diverged from every branch with record '{}'", t.record
        );
    }

    /// Every legal fusion cap (1..=4 qubits per block) is semantically
    /// neutral relative to the unfused kernel backend.
    #[test]
    fn fusion_cap_is_semantically_neutral(
        c in measured_circuit(N, 12),
        init in state(N),
        cap in 1usize..=4,
    ) {
        let unfused = c.simulate_with(&init, &opts(false, 2, false)).unwrap();
        let fused = c.simulate_with(&init, &opts(true, cap, false)).unwrap();
        assert_sims_agree(&unfused, &fused, "unfused vs fused at random cap");
    }
}

/// Deterministic pseudo-random layered circuit for the boundary tests:
/// a Hadamard/rotation layer, an entangling brick pattern, and a few
/// long-range gates so both the 1q, diagonal, swap and k-qubit kernels
/// all run.
fn boundary_circuit(n: usize) -> QCircuit {
    let mut c = QCircuit::new(n);
    for q in 0..n {
        c.push_back(Hadamard::new(q));
        c.push_back(RotationZ::new(q, 0.1 + 0.05 * q as f64));
    }
    for q in (0..n - 1).step_by(2) {
        c.push_back(CNOT::new(q, q + 1));
    }
    for q in (1..n - 1).step_by(2) {
        c.push_back(CZ::new(q, q + 1));
    }
    c.push_back(SwapGate::new(0, n - 1));
    c.push_back(RotationZZ::new(1, n - 2, 0.7));
    c.push_back(ISwapGate::new(2, n - 3));
    c.push_back(Toffoli::new(0, 1, 2));
    c.push_back(CRY::new(n - 1, 0, 1.3));
    c
}

/// Serial, parallel, and fused-parallel kernel runs agree on registers
/// one qubit below and one above the parallel threshold, where the
/// dispatch decision flips.
fn check_parallel_boundary(n: usize) {
    let c = boundary_circuit(n);
    let init = CVec::basis_state(1 << n, 0);
    let serial = c.simulate_with(&init, &opts(false, 2, false)).unwrap();
    let parallel = c.simulate_with(&init, &opts(false, 2, true)).unwrap();
    let fused = c.simulate_with(&init, &opts(true, 2, true)).unwrap();
    assert_sims_agree(&serial, &parallel, "serial vs parallel kernel");
    assert_sims_agree(&parallel, &fused, "parallel vs fused-parallel kernel");
}

#[test]
fn kernels_agree_one_below_parallel_threshold() {
    check_parallel_boundary(PARALLEL_THRESHOLD_QUBITS - 1);
}

#[test]
fn kernels_agree_one_above_parallel_threshold() {
    check_parallel_boundary(PARALLEL_THRESHOLD_QUBITS + 1);
}

/// The compile/execute split must be invisible: a plan served from the
/// fingerprint-keyed cache is the *same* plan (one shared `Arc`) and
/// drives the executor bit-identically to a freshly lowered program.
#[test]
fn cached_plan_matches_fresh_lowering_bit_for_bit() {
    let c = boundary_circuit(N);
    let sim_opts = opts(true, 2, false);
    let popts = PlanOptions::from(&sim_opts.kernel);

    // two compiles of an unchanged circuit share one plan
    let cached = c.compile_with(&popts);
    assert!(
        std::sync::Arc::ptr_eq(&cached, &c.compile_with(&popts)),
        "recompiling an unchanged circuit must hit the plan cache"
    );

    // the cached plan is structurally the plan a fresh lowering builds
    let fresh = program::lower(&c, &popts);
    assert_eq!(fresh.fingerprint(), cached.fingerprint());
    assert_eq!(fresh.ops().len(), cached.ops().len());
    for (a, b) in fresh.ops().iter().zip(cached.ops()) {
        assert_eq!(a.to_string(), b.to_string(), "cached plan drifted");
    }

    // driving both plans through the same executor is bit-identical
    let init = CVec::basis_state(1 << N, 3);
    let mut via_fresh = init.clone();
    let mut via_cached = init.clone();
    fresh.apply_unitary(&mut via_fresh).unwrap();
    cached.apply_unitary(&mut via_cached).unwrap();
    for (x, y) in via_fresh.iter().zip(via_cached.iter()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "cached amplitudes drifted");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "cached amplitudes drifted");
    }

    // and so is the full simulator front end: a cold-cache run and a
    // warm-cache run of the same circuit return the same bits
    program::clear_plan_cache();
    let cold = c.simulate_with(&init, &sim_opts).unwrap();
    let warm = c.simulate_with(&init, &sim_opts).unwrap();
    for (sa, sb) in cold.states().iter().zip(warm.states()) {
        for (x, y) in sa.iter().zip(sb.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "warm-cache run drifted");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "warm-cache run drifted");
        }
    }
}

/// A barrier is a fusion wall in every backend. All executors pull their
/// plan from the one lowering pipeline, so the fence must survive
/// lowering, split the fused block, and change nothing semantically —
/// in the kernel and Kronecker simulators, the zero-noise trajectory
/// sampler (which fuses) and the stabilizer engine alike.
#[test]
fn barrier_blocks_fusion_identically_in_all_backends() {
    // Clifford-only so the stabilizer backend can run the same circuit
    let mut barred = QCircuit::new(2);
    barred.push_back(Hadamard::new(0));
    barred.push_back(SGate::new(0));
    barred.push_back(CircuitItem::Barrier(vec![0]));
    barred.push_back(CNOT::new(0, 1));
    barred.push_back(Hadamard::new(1));

    let mut unbarred = QCircuit::new(2);
    for item in barred.items() {
        if !matches!(item, CircuitItem::Barrier(_)) {
            unbarred.push_back(item.clone());
        }
    }

    // plan level: the fence survives lowering and splits the block the
    // barrier-free circuit fuses whole
    let popts = PlanOptions::default();
    let plan = barred.compile_with(&popts);
    let plan_unbarred = unbarred.compile_with(&popts);
    assert_eq!(plan.stats().fences, 1, "the barrier must lower to a fence");
    assert_eq!(plan_unbarred.stats().fences, 0);
    assert!(
        plan.stats().gates_out > plan_unbarred.stats().gates_out,
        "the fence must block fusion: {} vs {} gates after the pass",
        plan.stats().gates_out,
        plan_unbarred.stats().gates_out
    );

    // backend level: fused kernel, fused Kronecker and the unfused
    // reference agree on the barred circuit, and the barrier changes no
    // amplitudes relative to the barrier-free circuit
    let init = CVec::basis_state(1 << 2, 0);
    let reference = barred.simulate_with(&init, &opts(false, 2, false)).unwrap();
    let fused = opts(true, 2, false);
    for (fused, what) in [
        (barred.simulate_with(&init, &fused), "fused kernel"),
        (kron::simulate(&barred, &init, &fused), "fused kron"),
    ] {
        assert_sims_agree(&reference, &fused.unwrap(), what);
    }
    let no_barrier = unbarred
        .simulate_with(&init, &opts(true, 2, false))
        .unwrap();
    assert_sims_agree(&reference, &no_barrier, "barrier must be a no-op");

    // the zero-noise trajectory sampler fuses through the same plan and
    // must reproduce the reference state exactly
    let t =
        trajectory::run_single_trajectory(&barred, &init, &TrajectoryConfig::default(), 5).unwrap();
    assert!(t.injected.is_empty());
    assert!(
        t.state.approx_eq(reference.states()[0], 1e-12),
        "trajectory diverged across the barrier"
    );

    // the stabilizer engine executes the same fence-preserving plan
    let mut rng = Rng::seed_from_u64(5);
    let stab = run_stabilizer(&barred, &mut rng).unwrap();
    assert_eq!(stab.record, "", "no measurements, no record");
}
