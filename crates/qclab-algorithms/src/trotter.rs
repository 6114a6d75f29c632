//! Trotterized Hamiltonian simulation.
//!
//! Builds quantum circuits approximating `exp(−iHt)` for a Hamiltonian
//! given as a sum of Pauli strings — the workload class of the F3C
//! compiler the paper cites (time evolution of spin chains). Each string
//! exponential `exp(−iθP)` is synthesized exactly with the textbook
//! construction: rotate every support qubit into the Z basis, accumulate
//! the parity on the last support qubit with a CNOT ladder, apply
//! `RZ(2θ)`, and undo. First- and second-order (Strang) product
//! formulas are provided.

use qclab_core::observable::{Observable, Pauli, PauliString};
use qclab_core::prelude::*;

/// The product-formula order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrotterOrder {
    /// `Π_k exp(−i c_k P_k dt)` — error `O(dt²)` per step.
    First,
    /// Strang splitting: forward half-step then reversed half-step —
    /// error `O(dt³)` per step.
    Second,
}

/// Appends the exact circuit for `exp(−i·theta·P)` to `circuit`.
///
/// `P` must be a non-identity Pauli string; the identity contributes
/// only a global phase and is skipped.
pub fn push_pauli_exponential(circuit: &mut QCircuit, string: &PauliString, theta: f64) {
    let n = string.nb_qubits();
    assert_eq!(circuit.nb_qubits(), n, "register size mismatch");
    let support = string.support();
    if support.is_empty() || theta.abs() < 1e-15 {
        return;
    }

    // basis changes into Z
    for &(q, p) in &support {
        match p {
            Pauli::X => {
                circuit.push_back(Hadamard::new(q));
            }
            Pauli::Y => {
                // V† = H·S† (S† first in circuit order) maps Y to Z
                circuit.push_back(SdgGate::new(q));
                circuit.push_back(Hadamard::new(q));
            }
            _ => {}
        }
    }
    // parity ladder onto the last support qubit
    let target = support.last().unwrap().0;
    for w in support.windows(2) {
        circuit.push_back(CNOT::new(w[0].0, w[1].0));
    }
    // exp(−iθ Z..Z) = RZ(2θ) on the parity qubit
    circuit.push_back(RotationZ::new(target, 2.0 * theta));
    // undo ladder and basis changes
    for w in support.windows(2).rev() {
        circuit.push_back(CNOT::new(w[0].0, w[1].0));
    }
    for &(q, p) in support.iter().rev() {
        match p {
            Pauli::X => {
                circuit.push_back(Hadamard::new(q));
            }
            Pauli::Y => {
                circuit.push_back(Hadamard::new(q));
                circuit.push_back(SGate::new(q));
            }
            _ => {}
        }
    }
}

/// One Trotter step of size `dt` for the observable `h`.
pub fn trotter_step(h: &Observable, dt: f64, order: TrotterOrder) -> QCircuit {
    let n = h.nb_qubits();
    let mut c = QCircuit::new(n);
    match order {
        TrotterOrder::First => {
            for (coeff, string) in h.terms() {
                push_pauli_exponential(&mut c, string, coeff * dt);
            }
        }
        TrotterOrder::Second => {
            for (coeff, string) in h.terms() {
                push_pauli_exponential(&mut c, string, coeff * dt / 2.0);
            }
            for (coeff, string) in h.terms().iter().rev() {
                push_pauli_exponential(&mut c, string, coeff * dt / 2.0);
            }
        }
    }
    c
}

/// The full evolution circuit `≈ exp(−i·h·t)` with `steps` Trotter steps.
pub fn evolve(h: &Observable, t: f64, steps: usize, order: TrotterOrder) -> QCircuit {
    assert!(steps > 0);
    let step = trotter_step(h, t / steps as f64, order);
    let mut c = QCircuit::new(h.nb_qubits());
    for _ in 0..steps {
        for item in step.items() {
            c.push_back(item.clone());
        }
    }
    c
}

/// The exact evolution operator `exp(−i·h·t)` by dense diagonalization
/// (small registers; used to validate the Trotter circuits).
pub fn exact_evolution(h: &Observable, t: f64) -> qclab_math::CMat {
    qclab_math::eig::hermitian_evolution(&h.matrix(), t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_math::CVec;

    fn op_distance(a: &qclab_math::CMat, b: &qclab_math::CMat) -> f64 {
        // distance up to global phase: minimize over the phase of the
        // largest entry
        let mut best = (0usize, 0usize);
        let mut mag = 0.0;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if a[(i, j)].norm() > mag {
                    mag = a[(i, j)].norm();
                    best = (i, j);
                }
            }
        }
        let phase = a[best] / b[best];
        let phase = phase / qclab_math::scalar::cr(phase.norm());
        b.scale(phase).max_abs_diff(a)
    }

    #[test]
    fn single_x_term_is_an_rx_rotation() {
        let h = Observable::new(1).term(0.5, "X");
        let c = trotter_step(&h, 0.8, TrotterOrder::First);
        let got = c.to_matrix().unwrap();
        // exp(-i 0.5·0.8 X) = RX(0.8)
        let want = qclab_core::gates::matrices::rotation_x(0.8);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn zz_term_is_an_rzz_rotation() {
        let h = Observable::new(2).term(1.0, "ZZ");
        let c = trotter_step(&h, 0.6, TrotterOrder::First);
        let got = c.to_matrix().unwrap();
        let want = qclab_core::gates::matrices::rotation_zz(1.2);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn arbitrary_string_matches_dense_exponential() {
        for s in ["XYZ", "YY", "ZXY", "XIX"] {
            let n = s.len();
            let h = Observable::new(n).term(0.7, s);
            let circuit = trotter_step(&h, 0.9, TrotterOrder::First);
            let got = circuit.to_matrix().unwrap();
            let want = exact_evolution(&h, 0.9);
            assert!(
                op_distance(&got, &want) < 1e-10,
                "exp of {s} wrong by {}",
                op_distance(&got, &want)
            );
        }
    }

    #[test]
    fn single_term_hamiltonian_is_exact_at_any_dt() {
        // one term: no Trotter error at all
        let h = Observable::new(2).term(-1.3, "XY");
        let got = evolve(&h, 2.5, 1, TrotterOrder::First).to_matrix().unwrap();
        let want = exact_evolution(&h, 2.5);
        assert!(op_distance(&got, &want) < 1e-10);
    }

    fn tfim_error(steps: usize, order: TrotterOrder) -> f64 {
        let h = Observable::ising_chain(3, 1.0, 0.7);
        let t = 1.0;
        let circuit = evolve(&h, t, steps, order);
        let exact = exact_evolution(&h, t);
        let init = CVec::basis_state(8, 3);
        let sim = circuit.simulate(&init).unwrap();
        let approx_state = sim.states()[0];
        let exact_state = CVec(exact.matvec(&init));
        1.0 - approx_state.fidelity(&exact_state)
    }

    #[test]
    fn first_order_error_shrinks_linearly_in_step_size() {
        let e4 = tfim_error(4, TrotterOrder::First);
        let e8 = tfim_error(8, TrotterOrder::First);
        let e16 = tfim_error(16, TrotterOrder::First);
        assert!(e8 < e4 && e16 < e8, "no convergence: {e4} {e8} {e16}");
        // fidelity error of a 1st-order formula scales ~1/steps²;
        // allow a loose factor on the asymptotic ratio
        assert!(e16 < e8 / 2.0, "convergence too slow: {e8} -> {e16}");
        // and in the asymptotic regime the order shows: ~2^2 per doubling
        let slope =
            (tfim_error(32, TrotterOrder::First) / tfim_error(64, TrotterOrder::First)).log2();
        assert!(slope > 1.5, "first-order slope 2^{slope} too shallow");
    }

    #[test]
    fn second_order_beats_first_order() {
        let e1 = tfim_error(8, TrotterOrder::First);
        let e2 = tfim_error(8, TrotterOrder::Second);
        assert!(
            e2 < e1 / 5.0,
            "Strang splitting not better: first {e1}, second {e2}"
        );
        // two powers better: ~2^4 per step doubling against 2^2
        let slope =
            (tfim_error(16, TrotterOrder::Second) / tfim_error(32, TrotterOrder::Second)).log2();
        assert!(slope > 3.0, "second-order slope 2^{slope} too shallow");
    }

    #[test]
    fn evolution_is_unitary_and_reversible() {
        let h = Observable::ising_chain(3, 0.8, 0.5);
        let fwd = evolve(&h, 0.7, 5, TrotterOrder::Second);
        let m = fwd.to_matrix().unwrap();
        assert!(m.is_unitary(1e-10));
        // forward then adjoint = identity
        let bwd = fwd.adjoint().unwrap().to_matrix().unwrap();
        assert!(bwd.matmul(&m).is_identity(1e-10));
    }
}
