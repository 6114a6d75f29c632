//! Validation of the shot-execution fast paths against the exact
//! simulator and the plain per-shot trajectory engine:
//!
//! * the **alias path** (unitary circuit + terminal measurements,
//!   noiseless) must draw from exactly the branch distribution the
//!   branching simulator computes — pinned by a chi-square
//!   goodness-of-fit test,
//! * the **fork path** (deterministic prefix evolved once, shots forked
//!   from the snapshot) must be *bit-identical* to the unforked engine
//!   at the same seed — counts, injected errors and watchdog stats,
//! * the **shot plan** that drives the dispatch must partition the
//!   lowered op schedule in place: no op reordered, no measurement or
//!   reset in the prefix, fences left where they were.

mod common;

use common::{assert_distribution, measured_circuit, Expected};
use qclab::prelude::*;
use qclab_core::program;
use qclab_core::sim::trajectory::{
    run_trajectories, run_trajectories_from, NoiseSpec, PauliChannel, Reference, ShotPath,
    TrajectoryConfig,
};
use qclab_core::{Observable, PlanOptions, ProgramOp};
use qclab_testkit::prelude::*;

/// A small entangling workload with measurements on every qubit.
fn sampling_workload(n: usize) -> QCircuit {
    let mut c = QCircuit::new(n);
    for q in 0..n {
        c.push_back(Hadamard::new(q));
        c.push_back(RotationY::new(q, 0.3 + 0.2 * q as f64));
    }
    for q in 0..n - 1 {
        c.push_back(CNOT::new(q, q + 1));
    }
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    c
}

#[test]
fn alias_sampled_counts_match_exact_branch_probabilities() {
    let n = 4;
    let c = sampling_workload(n);
    let sim = c.simulate(&CVec::basis_state(1 << n, 0)).unwrap();
    let shots = 20_000u64;
    let result = run_trajectories(
        &c,
        &TrajectoryConfig {
            shots,
            seed: 13,
            ..TrajectoryConfig::default()
        },
    )
    .unwrap();
    assert!(
        matches!(result.path(), ShotPath::AliasSampled { .. }),
        "workload must take the alias path, got {}",
        result.path()
    );
    assert_eq!(result.total_counts(), shots);

    // chi-square goodness of fit against the exact branch distribution
    let mut probs = std::collections::BTreeMap::new();
    for b in sim.branches() {
        *probs.entry(b.result().to_string()).or_insert(0.0) += b.probability();
    }
    let what = "alias draws vs the simulator";
    let dof = assert_distribution(result.counts(), Expected::Exact(&probs), what);
    assert!(dof > 3, "workload should spread over many branches");
    // every drawn record must be a branch the simulator produces
    let valid: std::collections::BTreeSet<_> = sim
        .branches()
        .iter()
        .map(|b| b.result().to_string())
        .collect();
    for record in result.counts().keys() {
        assert!(valid.contains(record), "impossible record '{record}' drawn");
    }
}

#[test]
fn forked_zero_noise_runs_are_bit_identical_to_per_shot() {
    // mid-circuit measurement + later gates keep the run off the alias
    // path; zero noise means the fork must change nothing at all
    let mut c = QCircuit::new(4);
    for q in 0..4 {
        c.push_back(Hadamard::new(q));
    }
    c.push_back(CNOT::new(0, 1));
    c.push_back(Measurement::z(0));
    c.push_back(CNOT::new(1, 2));
    c.push_back(Measurement::x(2));
    c.push_back(Measurement::z(0)); // re-measure: never alias-eligible
    let mk = |reference| TrajectoryConfig {
        shots: 500,
        seed: 29,
        reference,
        ..TrajectoryConfig::default()
    };
    let fast = run_trajectories(&c, &mk(Reference::Product)).unwrap();
    let slow = run_trajectories(&c, &mk(Reference::NoSharing)).unwrap();
    assert!(matches!(fast.path(), ShotPath::Forked { .. }));
    assert_eq!(slow.path(), ShotPath::PerShot);
    assert_eq!(fast.counts(), slow.counts(), "forking changed the counts");
    assert_eq!(fast.norm_stats(), slow.norm_stats());
    assert_eq!(fast.injected_errors(), 0);
}

#[test]
fn forked_observable_runs_match_per_shot_expectations_exactly() {
    // terminal measurements + observables: alias is off (per-shot final
    // states are needed) but the whole circuit is deterministic prefix
    let c = sampling_workload(3);
    let z0 = Observable::new(3).term(1.0, "ZII");
    let mk = |reference| TrajectoryConfig {
        shots: 200,
        seed: 5,
        reference,
        observables: vec![z0.clone()],
        ..TrajectoryConfig::default()
    };
    let fast = run_trajectories(&c, &mk(Reference::Product)).unwrap();
    let slow = run_trajectories(&c, &mk(Reference::NoSharing)).unwrap();
    assert!(matches!(fast.path(), ShotPath::Forked { .. }));
    assert_eq!(fast.counts(), slow.counts());
    // bit-identical forking extends to the averaged expectations
    assert_eq!(fast.expectations(), slow.expectations());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(32)))]

    /// The shot plan splits the lowered schedule in place: the prefix is
    /// purely deterministic (gates and fences), the split sits exactly at
    /// the first stochastic op, and a sample-eligible suffix holds only
    /// single measurements of distinct qubits (fences stay put).
    #[test]
    fn shot_plan_partitions_programs_in_place(c in measured_circuit(3, 12)) {
        let program = program::compile(&c, &PlanOptions::unfused());
        let plan = program.shot_plan();
        let ops = program.ops();
        prop_assert_eq!(plan.prefix_ops + plan.suffix_ops, ops.len());
        let first_stochastic = ops
            .iter()
            .position(|op| matches!(op, ProgramOp::Measure(_) | ProgramOp::Reset(_)))
            .unwrap_or(ops.len());
        prop_assert_eq!(plan.prefix_ops, first_stochastic);
        for op in &ops[..plan.prefix_ops] {
            prop_assert!(
                matches!(op, ProgramOp::Gate(_) | ProgramOp::Fence(_)),
                "stochastic op leaked into the prefix"
            );
        }
        if plan.terminal_measurements {
            let mut seen = std::collections::BTreeSet::new();
            for op in &ops[plan.prefix_ops..] {
                match op {
                    ProgramOp::Measure(m) => prop_assert!(
                        seen.insert(m.qubit()),
                        "terminal plan re-measures qubit {}",
                        m.qubit()
                    ),
                    ProgramOp::Fence(_) => {}
                    other => prop_assert!(false, "non-measurement {other} in terminal suffix"),
                }
            }
            prop_assert_eq!(seen.len(), plan.measured_qubits.len());
        }
    }

    /// Forking is exact for arbitrary circuits whenever the prefix draws
    /// no randomness: with readout noise only, fast-path and per-shot
    /// runs agree bit for bit.
    #[test]
    fn forking_is_exact_under_readout_noise(c in measured_circuit(3, 10)) {
        let mk = |reference| TrajectoryConfig {
            shots: 48,
            seed: 17,
            reference,
            noise: NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(0.1)),
                ..NoiseSpec::default()
            },
            ..TrajectoryConfig::default()
        };
        // this test pins the fork-vs-per-shot engines; an all-Clifford
        // draw would otherwise route to the frame sampler, which an
        // explicit initial state rules out
        let zero = CVec::basis_state(1 << c.nb_qubits(), 0);
        let fast = run_trajectories(&c, &mk(Reference::NoFrames)).unwrap();
        let slow = run_trajectories_from(&c, &zero, &mk(Reference::NoSharing)).unwrap();
        prop_assert_eq!(slow.path(), ShotPath::PerShot);
        prop_assert_eq!(fast.counts(), slow.counts());
        prop_assert_eq!(fast.injected_errors(), slow.injected_errors());
        prop_assert_eq!(fast.norm_stats(), slow.norm_stats());
    }
}
