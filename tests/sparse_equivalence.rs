//! Property tests: the sparse hashmap executor must be indistinguishable
//! from the dense state-vector engine wherever both run — a differential
//! oracle over random circuits that interleave unitary gates, barriers,
//! mid-circuit measurements (all three bases), resets and nested
//! sub-circuits. Branch records must match exactly, probabilities and
//! every amplitude to 1e-12. A chi-square leg checks that sparse
//! `counts` draws follow the dense engine's exact branch marginal, and
//! an acceptance test locks in the headline capability: a 30-qubit
//! low-entanglement circuit the dense guard refuses completes under
//! `BackendRequest::Auto` on the sparse executor.

mod common;

use common::{assert_distribution, measured_circuit, random_layers, state, Expected};
use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::route::{self, BackendChoice, BackendRequest};
use qclab_core::sim::sparse::{self, SparseState};
use qclab_core::sim::trajectory::{run_trajectories, ShotPath, TrajectoryConfig};
use qclab_core::{CircuitItem, QclabError};
use qclab_testkit::prelude::*;
use std::collections::BTreeMap;

const N: usize = 4;

/// A random circuit that exercises the whole item vocabulary the two
/// executors must agree on: a measured prefix, a nested sub-circuit at a
/// random offset (lowering flattens it into the shared op stream), and
/// a measured suffix.
fn rich_circuit() -> impl Strategy<Value = QCircuit> {
    (
        measured_circuit(N, 8),
        measured_circuit(3, 5),
        0..=N - 3,
        measured_circuit(N, 4),
    )
        .prop_map(|(mut outer, inner, offset, suffix)| {
            outer.push_back(CircuitItem::SubCircuit {
                offset,
                circuit: inner,
            });
            for item in suffix.items() {
                outer.push_back(item.clone());
            }
            outer
        })
}

/// Runs the sparse executor over the circuit's unfused plan from an
/// arbitrary dense initial state.
fn run_sparse(c: &QCircuit, init: &CVec) -> Simulation<SparseState> {
    let program = program::compile(c, &PlanOptions::unfused());
    let initial = SparseState::from_dense(init, 0.0);
    sparse::execute(&program, initial, &SimOptions::default()).unwrap()
}

/// Asserts the sparse run reproduces the dense run: identical branch
/// records, probabilities to 1e-12, and every amplitude to 1e-12 (via
/// the dense bridge, which also re-checks the byte guard).
fn assert_sparse_matches_dense(sp: &Simulation<SparseState>, dense: &Simulation, what: &str) {
    assert_eq!(
        sp.results(),
        dense.results(),
        "{what}: branch records diverged"
    );
    for (pa, pb) in sp.probabilities().iter().zip(dense.probabilities()) {
        assert!(
            (pa - pb).abs() < 1e-12,
            "{what}: branch probabilities diverged ({pa} vs {pb})"
        );
    }
    let bridged = sp.to_dense(&ResourceLimits::default()).unwrap();
    for (sa, sb) in bridged.states().iter().zip(dense.states()) {
        for (a, b) in sa.iter().zip(sb.iter()) {
            assert!(
                (a - b).norm() < 1e-12,
                "{what}: amplitudes diverged ({a:?} vs {b:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// Differential oracle from the all-zeros basis state: the workload
    /// shape the CLI and the trajectory prefix path run.
    #[test]
    fn sparse_matches_dense_from_basis_state(c in rich_circuit()) {
        let init = CVec::basis_state(1 << N, 0);
        let dense = c.simulate_with(&init, &SimOptions::default()).unwrap();
        let sp = run_sparse(&c, &init);
        assert_sparse_matches_dense(&sp, &dense, "basis-state start");
    }

    /// Differential oracle from a random dense state: every entry of the
    /// hashmap is live, so the general apply path, pruning and the
    /// measurement collapse all run with full support.
    #[test]
    fn sparse_matches_dense_from_random_state(c in rich_circuit(), init in state(N)) {
        let dense = c.simulate_with(&init, &SimOptions::default()).unwrap();
        let sp = run_sparse(&c, &init);
        assert_sparse_matches_dense(&sp, &dense, "random-state start");
    }

    /// The routed front end agrees with the dense engine regardless of
    /// which backend the request resolves to.
    #[test]
    fn routed_simulation_is_backend_transparent(c in rich_circuit()) {
        let zeros = "0".repeat(N);
        let dense = c.simulate_bitstring(&zeros).unwrap();
        for request in [BackendRequest::Auto, BackendRequest::Dense, BackendRequest::Sparse] {
            let routed = c
                .simulate_bitstring_routed(&zeros, &SimOptions::default(), request)
                .unwrap();
            prop_assert_eq!(routed.results(), dense.results(), "records under {}", request);
            for (pa, pb) in routed.probabilities().iter().zip(dense.probabilities()) {
                prop_assert!(
                    (pa - pb).abs() < 1e-12,
                    "probabilities diverged under {} ({} vs {})", request, pa, pb
                );
            }
        }
    }
}

/// An angle that puts a rotation's flip entry on either side of the
/// support bound's floor: generic; 1e-12 or 1e-13, whose flips survive
/// pruning; or π and 2π, whose flips are trig rounding (about 1e-16)
/// and are pruned.
fn edge_angle() -> impl Strategy<Value = f64> {
    prop_oneof![
        common::angle(),
        Just(1e-12),
        Just(1e-13),
        Just(std::f64::consts::PI),
        Just(std::f64::consts::TAU),
    ]
}

/// A random measured circuit (all three bases, resets, barriers) whose
/// rotations half the time take an [`edge_angle`].
fn edge_circuit() -> impl Strategy<Value = QCircuit> {
    let q = 0..N;
    let qq = (0..N, 0..N - 1).prop_map(|(a, b)| (a, if b >= a { b + 1 } else { b }));
    let item = prop_oneof![
        common::gate(N).prop_map(CircuitItem::Gate),
        common::gate(N).prop_map(CircuitItem::Gate),
        common::gate(N).prop_map(CircuitItem::Gate),
        (q.clone(), edge_angle()).prop_map(|(q, t)| CircuitItem::Gate(RotationX::new(q, t))),
        (q.clone(), edge_angle()).prop_map(|(q, t)| CircuitItem::Gate(RotationY::new(q, t))),
        (qq.clone(), edge_angle())
            .prop_map(|((a, b), t)| CircuitItem::Gate(RotationXX::new(a, b, t))),
        (qq, edge_angle()).prop_map(|((a, b), t)| CircuitItem::Gate(CRY::new(a, b, t))),
        (q.clone(), edge_angle(), common::angle())
            .prop_map(|(q, t, p)| CircuitItem::Gate(U3Gate::new(q, t, p, -p))),
        q.clone().prop_map(|q| CircuitItem::Barrier(vec![q])),
        (q.clone(), 0u8..3).prop_map(|(q, b)| {
            CircuitItem::Measurement(match b {
                0 => Measurement::z(q),
                1 => Measurement::x(q),
                _ => Measurement::y(q),
            })
        }),
        q.prop_map(CircuitItem::Reset),
    ];
    prop::collection::vec(item, 1..=16).prop_map(|items| {
        let mut c = QCircuit::new(N);
        for it in items {
            c.push_back(it);
        }
        c
    })
}

/// The sparse executor's peak and final live entries, summed over
/// branches, from `|0…0⟩`, and the plan's support bound.
fn support_and_bound(c: &QCircuit) -> (usize, usize, u128) {
    let program = program::compile(c, &PlanOptions::unfused());
    let initial = SparseState::basis_state(c.nb_qubits(), 0);
    let sim = sparse::execute(&program, initial, &SimOptions::default()).unwrap();
    let live = sim.branches().iter().map(|b| b.state().nnz()).sum();
    (sim.peak_entries(), live, program.stats().sparse_entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// `PlanStats::sparse_entries` is an upper bound: the sparse
    /// executor never holds more live entries, summed over branches.
    #[test]
    fn the_support_bound_holds_what_the_sparse_executor_keeps(c in edge_circuit()) {
        let (peak, live, bound) = support_and_bound(&c);
        prop_assert!(bound >= peak as u128, "bound {} below the peak {}", bound, peak);
        prop_assert!(bound >= live as u128, "bound {} below the final {}", bound, live);
    }
}

/// One rotation per qubit on 16 qubits: `rx(1e-12)` leaves each flip at
/// 5e-13, above the prune floor, so the executor keeps all 16 single
/// flips and the bound must spread; `rx(π)`'s flip is exact up to
/// rounding, so the bound must stay at one entry.
#[test]
fn the_support_bound_spreads_exactly_where_pruning_keeps_the_flip() {
    for (theta, kept, bound_is) in [(1e-12, 17, None), (std::f64::consts::PI, 1, Some(1))] {
        let mut c = QCircuit::new(16);
        for q in 0..16 {
            c.push_back(RotationX::new(q, theta));
        }
        let (_, live, bound) = support_and_bound(&c);
        assert_eq!(live, kept, "rx({theta}): live entries");
        assert!(
            bound >= kept as u128,
            "rx({theta}): bound {bound} below {kept}"
        );
        if let Some(b) = bound_is {
            assert_eq!(bound, b, "rx({theta}): bound");
        }
    }
}

/// `H q0; H q1; CX q0,q1` forty times on 14 qubits: above one sweep
/// tile, so the locality pass relabels q0 and q1 into low-order bits.
fn hot_rounds(c: &mut QCircuit) {
    for _ in 0..40 {
        c.push_back(Hadamard::new(0));
        c.push_back(Hadamard::new(1));
        c.push_back(CNOT::new(0, 1));
    }
}

/// Runs the sparse executor on the circuit's default dense plan without
/// fusion — the locality pass stays on, so the plan relabels — and
/// asserts it reproduces the dense engine.
fn assert_sparse_matches_dense_on_relabeled_plan(c: &QCircuit, what: &str) {
    let program = program::compile(
        c,
        &PlanOptions {
            fuse: false,
            ..PlanOptions::default()
        },
    );
    let stats = program.stats();
    assert!(
        stats.remap_moves + stats.remap_folds > 0,
        "{what}: the plan must relabel"
    );
    let zeros = "0".repeat(c.nb_qubits());
    let initial = SparseState::from_bitstring(&zeros).unwrap();
    let sp = sparse::execute(&program, initial, &SimOptions::default()).unwrap();
    let dense = c.simulate_bitstring(&zeros).unwrap();
    assert_sparse_matches_dense(&sp, &dense, what);
}

/// A measurement after a layout permute measures the logical qubit: the
/// executor resolves it through the layout map, as the dense engine does.
#[test]
fn sparse_measures_the_logical_qubit_after_a_relabel() {
    let mut c = QCircuit::new(14);
    hot_rounds(&mut c);
    c.push_back(PauliX::new(0));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(13));
    hot_rounds(&mut c);
    c.push_back(Measurement::z(1));
    assert_eq!(
        c.simulate_bitstring(&"0".repeat(14)).unwrap().results(),
        ["101"]
    );
    assert_sparse_matches_dense_on_relabeled_plan(&c, "measure after relabel");
}

/// A reset after a layout permute resets — and flips — the logical
/// qubit.
#[test]
fn sparse_resets_the_logical_qubit_after_a_relabel() {
    let mut c = QCircuit::new(14);
    hot_rounds(&mut c);
    c.push_back(PauliX::new(0));
    c.push_back(CircuitItem::Reset(0));
    hot_rounds(&mut c);
    c.push_back(Measurement::z(0));
    assert_sparse_matches_dense_on_relabeled_plan(&c, "reset after relabel");
}

/// A branching workload for the statistical legs: superposition,
/// entanglement, a mid-circuit X-basis measurement and a reset, so the
/// outcome marginal is spread over several result strings.
fn branching_circuit() -> QCircuit {
    let mut c = QCircuit::new(3);
    c.push_back(Hadamard::new(0));
    c.push_back(CRY::new(0, 1, 1.1));
    c.push_back(CNOT::new(1, 2));
    c.push_back(Measurement::x(1));
    c.push_back(RotationY::new(2, 0.7));
    c.push_back(CircuitItem::Reset(0));
    c.push_back(Hadamard::new(0));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(2));
    c
}

/// Sparse `counts` draws must follow the dense engine's exact branch
/// marginal — the chi-square check `tests/shot_fastpath.rs` applies to
/// the dense table path, here on the sampled surface, not just the
/// amplitudes.
#[test]
fn sparse_counts_match_dense_marginal_chi_square() {
    let c = branching_circuit();
    let init = CVec::basis_state(1 << 3, 0);
    let dense = c.simulate_with(&init, &SimOptions::default()).unwrap();
    // exact marginal over result strings (resets can make several
    // branches share a record: merge by summing)
    let mut probs: BTreeMap<String, f64> = BTreeMap::new();
    for (r, p) in dense.results().iter().zip(dense.probabilities()) {
        *probs.entry(r.to_string()).or_insert(0.0) += p;
    }
    assert!(probs.len() >= 4, "workload must branch, got {probs:?}");

    let sp = run_sparse(&c, &init);
    let draws = 40_000u64;
    for seed in [1u64, 7, 42] {
        let counts: BTreeMap<String, u64> = sp.counts(draws, seed).into_iter().collect();
        let total: u64 = counts.values().sum();
        assert_eq!(total, draws);
        let what = format!("seed {seed}: sparse counts vs the dense marginal");
        let dof = assert_distribution(&counts, Expected::Exact(&probs), &what);
        assert!(dof >= 3, "chi-square must retain bins, got dof {dof}");
    }
}

/// The trajectory sparse prefix-sampling path draws from the same
/// distribution as the dense engine's exact marginal.
#[test]
fn sparse_sampled_trajectories_match_dense_marginal_chi_square() {
    // terminal-measurement shape: gates, then measure every qubit
    let mut c = QCircuit::new(3);
    c.push_back(Hadamard::new(0));
    c.push_back(CRY::new(0, 1, 0.9));
    c.push_back(CNOT::new(1, 2));
    c.push_back(RotationY::new(2, 0.4));
    for q in 0..3 {
        c.push_back(Measurement::z(q));
    }
    let init = CVec::basis_state(1 << 3, 0);
    let dense = c.simulate_with(&init, &SimOptions::default()).unwrap();
    let mut probs: BTreeMap<String, f64> = BTreeMap::new();
    for (r, p) in dense.results().iter().zip(dense.probabilities()) {
        *probs.entry(r.to_string()).or_insert(0.0) += p;
    }

    let shots = 40_000u64;
    let config = TrajectoryConfig {
        shots,
        seed: 13,
        backend: BackendRequest::Sparse,
        ..TrajectoryConfig::default()
    };
    let result = run_trajectories(&c, &config).unwrap();
    assert!(
        matches!(result.path(), ShotPath::SparseSampled { .. }),
        "pinned sparse trajectory must take the prefix-sampling path, got {}",
        result.path()
    );
    let what = "sparse-sampled counts vs the dense marginal";
    let dof = assert_distribution(result.counts(), Expected::Exact(&probs), what);
    assert!(dof >= 2, "chi-square must retain bins, got dof {dof}");
}

/// The headline capability, locked in at the library level: a 30-qubit
/// low-entanglement circuit the dense guard refuses runs to completion
/// under `Auto`, which resolves it to the sparse executor — and below
/// the guard the chooser's verdicts follow the support bound.
#[test]
fn thirty_qubit_circuit_dense_refuses_auto_completes() {
    let n = 30;
    let mut c = QCircuit::new(n);
    // Grover-oracle shape: X flips plus a Toffoli ladder — a pure
    // permutation, so the support never leaves one basis state
    c.push_back(PauliX::new(0));
    c.push_back(PauliX::new(1));
    for t in 2..n {
        c.push_back(Toffoli::new(t - 2, t - 1, t));
    }
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    let zeros = "0".repeat(n);
    let opts = SimOptions::default();
    // dense refuses the register outright …
    assert!(matches!(
        c.simulate_bitstring(&zeros),
        Err(QclabError::ResourceExhausted { .. })
    ));
    // … and so does an explicit dense request through the router
    assert!(matches!(
        c.simulate_bitstring_routed(&zeros, &opts, BackendRequest::Dense),
        Err(QclabError::ResourceExhausted { .. })
    ));
    // Auto resolves sparse and completes: the ladder propagates the two
    // X flips through every Toffoli, ending in the all-ones state
    let sim = c
        .simulate_bitstring_routed(&zeros, &opts, BackendRequest::Auto)
        .unwrap();
    assert!(
        sim.is_sparse(),
        "30-qubit run must route to the sparse executor"
    );
    assert_eq!(sim.results(), vec!["1".repeat(n)]);
    assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);

    // where the dense guard admits the register, `Auto` still routes by
    // the support bound: an entangling circuit saturates it and stays
    // dense, a GHZ ladder (bound 2) resolves sparse
    let limits = ResourceLimits::default();
    let verdict = |c: &QCircuit| route::resolve(BackendRequest::Auto, c, &limits).unwrap().0;
    let entangling = random_layers(12, 12, 4, 3);
    assert_eq!(verdict(&entangling), BackendChoice::Dense);
    let mut ghz = QCircuit::new(24);
    ghz.push_back(Hadamard::new(0));
    for q in 1..24 {
        ghz.push_back(CNOT::new(q - 1, q));
    }
    assert!(limits.check_register(24).is_ok());
    assert!(
        matches!(verdict(&ghz), BackendChoice::Sparse { .. }),
        "GHZ-24 must resolve sparse, got {}",
        verdict(&ghz)
    );
}
