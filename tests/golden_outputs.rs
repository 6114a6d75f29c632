//! Golden-output tests pinning the exact text artifacts the paper shows:
//! the terminal rendering of circuit (1), its LaTeX source, and its
//! OpenQASM listing (`tests/golden/circuit1_*.txt`). Any unintended
//! change to the renderers breaks these loudly.

use qclab::prelude::*;
use qclab_algorithms::bell_circuit;
use qclab_testkit::golden;

#[test]
fn golden_ascii_rendering_of_circuit_1() {
    golden!("circuit1_ascii", draw_circuit(&bell_circuit()));
}

#[test]
fn golden_qasm_of_circuit_1() {
    golden!("circuit1_qasm", to_qasm(&bell_circuit()).unwrap());
}

#[test]
fn golden_latex_of_circuit_1() {
    golden!("circuit1_tex", to_tex(&bell_circuit()));
}

#[test]
fn golden_teleportation_rendering() {
    // pin the structure of the paper's Sec. 5.1 circuit drawing
    let art = draw_circuit(&qclab_algorithms::teleportation_circuit());
    let lines: Vec<&str> = art.lines().collect();
    assert_eq!(lines.len(), 9); // 3 qubits × 3 rows
                                // q0 carries H, a control dot, M, and the CZ control
    assert!(lines[1].contains("┤ H ├"));
    assert!(lines[1].matches('●').count() >= 2);
    // q2 carries the X and Z corrections
    assert!(lines[7].contains("┤ X ├"));
    assert!(lines[7].contains("┤ Z ├"));
}
