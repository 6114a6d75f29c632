//! # qclab-qasm
//!
//! OpenQASM 2.0 compatibility for qclab circuits (paper Sec. 4): the
//! exporter behind QCLAB's `toQASM`, plus a full lexer/parser/importer so
//! circuits round-trip — which is also how the exporter is tested.
//!
//! ```
//! use qclab_core::prelude::*;
//! use qclab_qasm::{from_qasm, to_qasm};
//!
//! let mut circuit = QCircuit::new(2);
//! circuit.push_back(Hadamard::new(0));
//! circuit.push_back(CNOT::new(0, 1));
//! let qasm = to_qasm(&circuit).unwrap();
//! assert!(qasm.contains("cx q[0], q[1];"));
//!
//! let back = from_qasm(&qasm).unwrap();
//! assert_eq!(back.nb_gates(), 2);
//! ```

pub mod ast;
pub mod emit;
pub mod import;
pub mod lexer;
pub mod parser;

use qclab_core::{QCircuit, QclabError};

/// The front end's own results: the error boxed, so that on the path
/// where nothing fails — every path but one — a result stays a register
/// or two wide instead of the size of a [`QclabError`].
type Fallible<T> = Result<T, Box<QclabError>>;

/// A [`QclabError::QasmParse`] at `line`.
fn perr(line: usize, message: impl Into<String>) -> Box<QclabError> {
    Box::new(QclabError::QasmParse {
        line,
        message: message.into(),
    })
}

/// Serializes a circuit to OpenQASM 2.0 (QCLAB's `circuit.toQASM()`).
pub fn to_qasm(circuit: &QCircuit) -> Result<String, QclabError> {
    emit::circuit_to_qasm(circuit)
}

/// Parses OpenQASM 2.0 source into a circuit.
pub fn from_qasm(src: &str) -> Result<QCircuit, QclabError> {
    import::program_to_circuit(&parser::parse(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_core::gates::factories::*;
    use qclab_core::prelude::*;

    /// Round-trip helper: export, re-import, and compare unitaries.
    fn round_trip_unitary(circuit: &QCircuit) {
        let qasm = to_qasm(circuit).unwrap();
        let back = from_qasm(&qasm).unwrap();
        assert_eq!(back.nb_qubits(), circuit.nb_qubits());
        let m1 = circuit.to_matrix().unwrap();
        let m2 = back.to_matrix().unwrap();
        assert!(
            m1.approx_eq(&m2, 1e-10),
            "round trip changed the unitary:\n{qasm}"
        );
    }

    #[test]
    fn round_trip_fixed_gates() {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(PauliX::new(1));
        c.push_back(PauliY::new(2));
        c.push_back(PauliZ::new(0));
        c.push_back(SGate::new(1));
        c.push_back(SdgGate::new(2));
        c.push_back(TGate::new(0));
        c.push_back(TdgGate::new(1));
        c.push_back(SXGate::new(2));
        c.push_back(SXdgGate::new(0));
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_parametric_gates() {
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(0, 0.37));
        c.push_back(RotationY::new(1, -1.2));
        c.push_back(RotationZ::new(0, 2.5));
        c.push_back(PhaseGate::new(1, 0.9));
        c.push_back(U2Gate::new(0, 0.1, 0.2));
        c.push_back(U3Gate::new(1, 1.0, -0.5, 0.25));
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_two_qubit_gates() {
        let mut c = QCircuit::new(3);
        c.push_back(SwapGate::new(0, 2));
        c.push_back(ISwapGate::new(1, 2));
        c.push_back(RotationXX::new(0, 1, 0.7));
        c.push_back(RotationYY::new(1, 2, -0.4));
        c.push_back(RotationZZ::new(0, 2, 1.9));
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_controlled_gates() {
        let mut c = QCircuit::new(3);
        c.push_back(CNOT::new(0, 1));
        c.push_back(CY::new(1, 2));
        c.push_back(CZ::new(0, 2));
        c.push_back(CH::new(2, 0));
        c.push_back(CRX::new(0, 1, 0.3));
        c.push_back(CRY::new(1, 0, 0.6));
        c.push_back(CRZ::new(2, 1, -0.9));
        c.push_back(CPhase::new(0, 2, 1.1));
        c.push_back(Toffoli::new(0, 1, 2));
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_lowered_gates() {
        // gates that the exporter must decompose
        let mut c = QCircuit::new(3);
        c.push_back(CNOT::with_control_state(0, 1, 0));
        c.push_back(Gate::S(2).controlled(0, 1)); // ABC path
        c.push_back(MCZ::new(&[0, 1], 2, &[1, 1]));
        c.push_back(MCX::new(&[1, 2], 0, &[0, 1]));
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_deeply_controlled_gates() {
        // 3- and 4-control gates exercised through the Barenco lowering
        let mut c = QCircuit::new(5);
        c.push_back(MCX::new(&[0, 1, 2], 3, &[1, 1, 1]));
        c.push_back(MCX::new(&[0, 1, 4], 2, &[0, 1, 0]));
        c.push_back(MCX::new(&[0, 1, 2, 3], 4, &[1, 0, 1, 1]));
        c.push_back(MCZ::new(&[0, 1, 2], 4, &[1, 1, 0]));
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_multi_controlled_rotation() {
        let mut c = QCircuit::new(4);
        c.push_back(
            Gate::RotationY {
                qubit: 3,
                theta: 0.83,
            }
            .controlled(0, 1)
            .controlled(1, 1)
            .controlled(2, 0),
        );
        round_trip_unitary(&c);
    }

    #[test]
    fn round_trip_custom_gate_up_to_phase() {
        let u = qclab_core::gates::matrices::u3(0.7, 0.3, -1.1).scale(qclab_math::scalar::cis(0.4));
        let mut c = QCircuit::new(1);
        c.push_back(CustomGate::new("G", &[0], u).unwrap());
        let qasm = to_qasm(&c).unwrap();
        let back = from_qasm(&qasm).unwrap();
        let m1 = c.to_matrix().unwrap();
        let m2 = back.to_matrix().unwrap();
        // compare up to one global phase
        let ratio = m1[(0, 0)] / m2[(0, 0)];
        assert!((ratio.norm() - 1.0).abs() < 1e-10);
        assert!(m2.scale(ratio).approx_eq(&m1, 1e-10));
    }

    #[test]
    fn round_trip_with_measurements_and_reset() {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(0));
        c.push_back(CircuitItem::Reset(0));
        c.push_back(Measurement::x(1));
        let qasm = to_qasm(&c).unwrap();
        let back = from_qasm(&qasm).unwrap();
        // same observable behaviour: simulate both
        let s1 = c.simulate_bitstring("00").unwrap();
        let s2 = back.simulate_bitstring("00").unwrap();
        assert_eq!(s1.results(), s2.results());
        for (p, q) in s1.probabilities().iter().zip(s2.probabilities()) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn grover_circuit_round_trip() {
        // the paper's Grover circuit with blocks flattens into clean QASM
        let mut oracle = QCircuit::new(2);
        oracle.push_back(CZ::new(0, 1));
        let mut diffuser = QCircuit::new(2);
        diffuser.push_back(Hadamard::new(0));
        diffuser.push_back(Hadamard::new(1));
        diffuser.push_back(PauliZ::new(0));
        diffuser.push_back(PauliZ::new(1));
        diffuser.push_back(CZ::new(0, 1));
        diffuser.push_back(Hadamard::new(0));
        diffuser.push_back(Hadamard::new(1));

        let mut gc = QCircuit::new(2);
        gc.push_back(Hadamard::new(0));
        gc.push_back(Hadamard::new(1));
        gc.push_back(oracle);
        gc.push_back(diffuser);
        round_trip_unitary(&gc);
    }
}
