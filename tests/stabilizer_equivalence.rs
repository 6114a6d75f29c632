//! Property tests: the stabilizer (tableau) backend agrees with the
//! state-vector simulator on random Clifford circuits — same
//! deterministic outcomes, same randomness structure, same
//! post-measurement correlations.

use qclab::prelude::*;
use qclab_core::sim::{collapse, kernel};
use qclab_core::StabilizerState;
use qclab_testkit::prelude::*;

/// A random Clifford operation for the equivalence test.
#[derive(Clone, Debug)]
enum CliffordOp {
    H(usize),
    S(usize),
    X(usize),
    Z(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Measure(usize),
}

fn clifford_op(n: usize) -> impl Strategy<Value = CliffordOp> {
    let q = 0..n;
    let qq = (0..n, 0..n - 1).prop_map(move |(a, b)| {
        let b = if b >= a { b + 1 } else { b };
        (a, b)
    });
    prop_oneof![
        q.clone().prop_map(CliffordOp::H),
        q.clone().prop_map(CliffordOp::S),
        q.clone().prop_map(CliffordOp::X),
        q.clone().prop_map(CliffordOp::Z),
        qq.clone().prop_map(|(a, b)| CliffordOp::Cnot(a, b)),
        qq.prop_map(|(a, b)| CliffordOp::Cz(a, b)),
        q.prop_map(CliffordOp::Measure),
    ]
}

/// Steps `ops` through both simulators. Whenever the stabilizer backend
/// declares an outcome random, the state vector must show a 50/50
/// split; when deterministic, probability 1 of the same bit. The
/// statevector branch follows the stabilizer's (forced) outcomes, so the
/// comparison holds along the whole path.
fn tableau_agrees(ops: &[CliffordOp]) -> Result<(), TestCaseError> {
    let n = 4;
    let mut tableau = StabilizerState::new(n).unwrap();
    let mut psi = CVec::basis_state(1 << n, 0);

    for op in ops {
        match *op {
            CliffordOp::H(q) => {
                tableau.apply_gate(&Hadamard::new(q)).unwrap();
                kernel::apply_gate(&Hadamard::new(q), &mut psi, n);
            }
            CliffordOp::S(q) => {
                tableau.apply_gate(&SGate::new(q)).unwrap();
                kernel::apply_gate(&SGate::new(q), &mut psi, n);
            }
            CliffordOp::X(q) => {
                tableau.apply_gate(&PauliX::new(q)).unwrap();
                kernel::apply_gate(&PauliX::new(q), &mut psi, n);
            }
            CliffordOp::Z(q) => {
                tableau.apply_gate(&PauliZ::new(q)).unwrap();
                kernel::apply_gate(&PauliZ::new(q), &mut psi, n);
            }
            CliffordOp::Cnot(a, b) => {
                tableau.apply_gate(&CNOT::new(a, b)).unwrap();
                kernel::apply_gate(&CNOT::new(a, b), &mut psi, n);
            }
            CliffordOp::Cz(a, b) => {
                tableau.apply_gate(&CZ::new(a, b)).unwrap();
                kernel::apply_gate(&CZ::new(a, b), &mut psi, n);
            }
            CliffordOp::Measure(q) => {
                let (p0, p1) = collapse::measure_probabilities(&psi, n, q);
                // choose the branch the statevector can follow
                let bit = p1 > p0;
                let outcome = tableau.measure_forced(q, bit).unwrap();
                if outcome.random {
                    prop_assert!(
                        (p0 - 0.5).abs() < 1e-9,
                        "tableau says random, statevector says P(0) = {p0}"
                    );
                } else {
                    let expected = if outcome.bit { p1 } else { p0 };
                    prop_assert!(
                        (expected - 1.0).abs() < 1e-9,
                        "tableau deterministic but P = {expected}"
                    );
                }
                let p = if bit { p1 } else { p0 };
                psi = collapse::collapse(&psi, n, q, bit as usize, p);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`tableau_agrees`] on random Clifford programs.
    #[test]
    fn tableau_agrees_with_statevector(
        ops in prop::collection::vec(clifford_op(4), 1..40),
    ) {
        tableau_agrees(&ops)?;
    }
}

/// A case the property once failed on, kept as a fixed regression.
#[test]
fn tableau_agrees_after_s_h_measure() {
    use CliffordOp::{Measure, H, S};
    tableau_agrees(&[S(0), H(0), Measure(0)]).unwrap();
}

#[test]
fn repetition_code_runs_on_the_tableau() {
    // the paper's QEC circuit is pure Clifford: run it on the stabilizer
    // backend, forcing the known syndrome
    let mut s = StabilizerState::new(5).unwrap();
    // encode |0>_L (stabilizer sim starts from |0...0>)
    s.apply_gate(&CNOT::new(0, 1)).unwrap();
    s.apply_gate(&CNOT::new(0, 2)).unwrap();
    // inject the paper's X error on q0
    s.apply_gate(&PauliX::new(0)).unwrap();
    // syndrome extraction
    s.apply_gate(&CNOT::new(0, 3)).unwrap();
    s.apply_gate(&CNOT::new(1, 3)).unwrap();
    s.apply_gate(&CNOT::new(0, 4)).unwrap();
    s.apply_gate(&CNOT::new(2, 4)).unwrap();
    // both ancillas must read 1 deterministically
    let m3 = s.measure_forced(3, true).unwrap();
    let m4 = s.measure_forced(4, true).unwrap();
    assert!(!m3.random && !m4.random, "syndrome must be deterministic");
    // Pauli-frame correction: X back on q0, then verify the data qubits
    s.apply_gate(&PauliX::new(0)).unwrap();
    for q in 0..3 {
        let m = s.measure_forced(q, false).unwrap();
        assert!(!m.random);
    }
}

#[test]
fn five_hundred_qubit_cluster_state() {
    // far beyond state-vector reach: build a 1D cluster state and check
    // the measurement correlation structure survives
    let n = 500;
    let mut s = StabilizerState::new(n).unwrap();
    for q in 0..n {
        s.apply_gate(&Hadamard::new(q)).unwrap();
    }
    for q in 0..n - 1 {
        s.apply_gate(&CZ::new(q, q + 1)).unwrap();
    }
    // measuring every qubit in Z yields all-random outcomes
    let mut rng = qclab_math::rng::Rng::seed_from_u64(5);
    let mut randoms = 0;
    for q in 0..n {
        if s.measure(q, &mut rng).random {
            randoms += 1;
        }
    }
    assert_eq!(randoms, n, "cluster state Z measurements are all random");
}
