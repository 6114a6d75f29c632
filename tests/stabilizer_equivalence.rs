//! Property tests: the stabilizer (tableau) backend agrees with the
//! state-vector simulator on random Clifford circuits — same
//! deterministic outcomes, same randomness structure, same
//! post-measurement correlations.

mod common;

use qclab::prelude::*;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::{collapse, kernel};
use qclab_core::StabilizerState;
use qclab_math::rng::Rng;
use qclab_testkit::prelude::*;

/// A random op for the equivalence test: a gate of the tableau's whole
/// Clifford family ([`common::clifford_gate`]), or a Z measurement.
#[derive(Clone, Debug)]
enum CliffordOp {
    Gate(Gate),
    Measure(usize),
}

fn clifford_op(n: usize) -> impl Strategy<Value = CliffordOp> {
    prop_oneof![
        common::clifford_gate(n).prop_map(CliffordOp::Gate),
        common::clifford_gate(n).prop_map(CliffordOp::Gate),
        common::clifford_gate(n).prop_map(CliffordOp::Gate),
        common::clifford_gate(n).prop_map(CliffordOp::Gate),
        (0..n).prop_map(CliffordOp::Measure),
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
        match op {
            CliffordOp::Gate(g) => {
                tableau.apply_gate(g).unwrap();
                kernel::apply_gate(g, &mut psi, n, &KernelConfig::default());
            }
            &CliffordOp::Measure(q) => {
                let (p0, p1) = collapse::measure_probabilities(&psi, n, q, None);
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
                psi = collapse::collapse(&psi, n, q, bit as usize, p, None);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(48)))]

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
    use CliffordOp::{Gate, Measure};
    tableau_agrees(&[Gate(SGate::new(0)), Gate(Hadamard::new(0)), Measure(0)]).unwrap();
}

/// The tableau's signs, pinned: every gate form the Clifford table
/// accepts, on every 2-qubit product of the six Pauli eigenstates
/// `|0⟩, |1⟩, |±⟩, |±i⟩`, then each qubit measured in Z, X and Y — on
/// the tableau through `measure_in_basis`, on the state vector through
/// `Basis::change_matrix`. A determined outcome must be certain on the
/// state vector, a random one 50/50; measured again in the same basis
/// (after the rotation back) it must repeat for certain. Frames are
/// sign-free, so a wrong sign (CY as S†·CX·S, or Y's `V†` as S·H) would
/// otherwise pass every frame test while moving the frame sampler's
/// reference bits.
#[test]
fn every_table_gate_keeps_the_signs_on_pauli_eigenstates() {
    let n = 2;
    // the gates that prepare eigenstate `k` on qubit `q` from |0⟩
    let prepare = |k: usize, q: usize| match k {
        0 => vec![],
        1 => vec![PauliX::new(q)],
        2 => vec![Hadamard::new(q)],
        3 => vec![PauliX::new(q), Hadamard::new(q)],
        4 => vec![Hadamard::new(q), SGate::new(q)],
        _ => vec![Hadamard::new(q), SdgGate::new(q)],
    };
    let mut gates = Vec::new();
    for q in 0..n {
        gates.extend([
            IdentityGate::new(q),
            Hadamard::new(q),
            SGate::new(q),
            SdgGate::new(q),
            PauliX::new(q),
            PauliY::new(q),
            PauliZ::new(q),
        ]);
    }
    for (a, b) in [(0, 1), (1, 0)] {
        gates.extend([
            SwapGate::new(a, b),
            CNOT::new(a, b),
            CY::new(a, b),
            CZ::new(a, b),
        ]);
    }
    let mut rng = Rng::seed_from_u64(1);
    for gate in &gates {
        for (k0, k1) in (0..6).flat_map(|k0| (0..6).map(move |k1| (k0, k1))) {
            let mut tableau = StabilizerState::new(n).unwrap();
            let mut psi = CVec::basis_state(1 << n, 0);
            for g in prepare(k0, 0).iter().chain(&prepare(k1, 1)).chain([gate]) {
                tableau.apply_gate(g).unwrap();
                kernel::apply_gate(g, &mut psi, n, &KernelConfig::default());
            }
            for m in (0..n).flat_map(|q| [Measurement::z(q), Measurement::x(q), Measurement::y(q)])
            {
                let case = format!("{gate:?} on eigenstates ({k0}, {k1}), {m:?}");
                let q = m.qubit();
                let vdg = Gate::Custom {
                    name: "V†".into(),
                    qubits: vec![q],
                    matrix: m.basis().change_matrix().dagger(),
                };
                let mut rotated = psi.clone();
                kernel::apply_gate(&vdg, &mut rotated, n, &KernelConfig::default());
                let (p0, _) = collapse::measure_probabilities(&rotated, n, q, None);

                let mut t = tableau.clone();
                let out = t.measure_in_basis(&m, &mut rng).unwrap();
                let expected = match (out.random, out.bit) {
                    (true, _) => 0.5,
                    (false, false) => 1.0,
                    (false, true) => 0.0,
                };
                assert!(
                    (p0 - expected).abs() < 1e-9,
                    "{case}: tableau {out:?}, state vector P(0) = {p0}"
                );
                let again = t.measure_in_basis(&m, &mut rng).unwrap();
                assert!(
                    !again.random && again.bit == out.bit,
                    "{case}: {out:?} then {again:?}"
                );
            }
        }
    }
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
    let mut rng = Rng::seed_from_u64(5);
    let mut randoms = 0;
    for q in 0..n {
        if s.measure(q, &mut rng).random {
            randoms += 1;
        }
    }
    assert_eq!(randoms, n, "cluster state Z measurements are all random");
}
