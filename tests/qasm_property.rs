//! Property tests: OpenQASM export/import round trips preserve the
//! circuit unitary on randomly generated circuits.

mod common;

use common::circuit;
use proptest::prelude::*;
use qclab::prelude::*;

/// Case count, raised by the hardened CI job through
/// `QCLAB_PROPTEST_CASES`.
fn cases() -> u32 {
    std::env::var("QCLAB_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Export → import → compare unitaries.
    #[test]
    fn qasm_round_trip_preserves_unitary(c in circuit(3, 10)) {
        let qasm = to_qasm(&c).unwrap();
        let back = from_qasm(&qasm).unwrap();
        prop_assert_eq!(back.nb_qubits(), c.nb_qubits());
        let m1 = c.to_matrix().unwrap();
        let m2 = back.to_matrix().unwrap();
        prop_assert!(
            m1.approx_eq(&m2, 1e-8),
            "round trip changed the unitary:\n{}",
            qasm
        );
    }

    /// The exported text always parses (no emitter/parser mismatch).
    #[test]
    fn exported_qasm_always_parses(c in circuit(4, 14)) {
        let qasm = to_qasm(&c).unwrap();
        prop_assert!(from_qasm(&qasm).is_ok(), "unparseable export:\n{qasm}");
    }
}

#[test]
fn angle_precision_survives_round_trip() {
    // 17 significant digits are enough to reproduce any f64 exactly
    let theta = 0.123_456_789_012_345_68_f64;
    let mut c = QCircuit::new(1);
    c.push_back(RotationZ::new(0, theta));
    let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
    match &back.items()[0] {
        CircuitItem::Gate(Gate::RotationZ { theta: t, .. }) => {
            assert_eq!(*t, theta, "angle changed in round trip");
        }
        other => panic!("unexpected item {other:?}"),
    }
}

#[test]
fn symbolic_pi_angles_round_trip_exactly() {
    for theta in [
        std::f64::consts::PI,
        std::f64::consts::FRAC_PI_2,
        -std::f64::consts::FRAC_PI_4,
        3.0 * std::f64::consts::PI / 4.0,
    ] {
        let mut c = QCircuit::new(1);
        c.push_back(PhaseGate::new(0, theta));
        let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        match &back.items()[0] {
            CircuitItem::Gate(Gate::Phase { theta: t, .. }) => {
                assert!((t - theta).abs() < 1e-15);
            }
            other => panic!("unexpected item {other:?}"),
        }
    }
}
