//! Property tests on the gate zoo: unitarity, adjoint inverses,
//! control-state semantics, and consistency between the structural
//! controlled representation and explicitly expanded matrices.

mod common;

use common::gate;
use qclab::prelude::*;
use qclab_core::sim::kernel::{self, KernelConfig};
use qclab_core::sim::kron::extended_unitary;
use qclab_math::scalar::cr;
use qclab_testkit::prelude::*;

const N: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(96)))]

    /// Every generated gate has a unitary target matrix.
    #[test]
    fn target_matrices_are_unitary(g in gate(N)) {
        prop_assert!(g.target_matrix().is_unitary(1e-10), "{} not unitary", g);
    }

    /// adjoint() is an exact inverse at the full-register level.
    #[test]
    fn adjoint_is_register_level_inverse(g in gate(N)) {
        let u = extended_unitary(&g, N).to_dense();
        let udg = extended_unitary(&g.adjoint(), N).to_dense();
        prop_assert!(udg.matmul(&u).is_identity(1e-9), "{}†·{} != I", g, g);
    }

    /// Double adjoint returns to the original unitary.
    #[test]
    fn double_adjoint_is_identity_operation(g in gate(N)) {
        let u = extended_unitary(&g, N).to_dense();
        let u2 = extended_unitary(&g.adjoint().adjoint(), N).to_dense();
        prop_assert!(u.approx_eq(&u2, 1e-9));
    }

    /// A controlled gate acts as the identity on states whose control
    /// qubits don't match, and as the raw gate when they do.
    #[test]
    fn control_semantics(g in gate(N), basis in 0usize..(1 << N)) {
        let controls = g.controls();
        prop_assume!(!controls.is_empty());
        let init = CVec::basis_state(1 << N, basis);
        let mut out = init.clone();
        kernel::apply_gate(&g, &mut out, N, &KernelConfig::default());

        let satisfied = controls.iter().all(|&(q, s)| {
            qclab_math::bits::qubit_bit(basis, q, N) == s as usize
        });
        if !satisfied {
            prop_assert!(out.approx_eq(&init, 1e-12), "identity expected for {}", g);
        } else {
            // the target qubits transform by the target matrix column
            let targets = g.targets();
            let sub_col = qclab_math::bits::gather_bits(basis, &targets, N);
            let m = g.target_matrix();
            for (sub_row, amp_expected) in m.col(sub_col).into_iter().enumerate() {
                let idx = qclab_math::bits::scatter_bits(basis, sub_row, &targets, N);
                prop_assert!((out[idx] - amp_expected).norm() < 1e-12);
            }
        }
    }

    /// shifted() commutes with matrix semantics: the gate shifted in a
    /// larger register equals the original embedded at the offset.
    #[test]
    fn shifting_preserves_structure(g in gate(3), offset in 0usize..3) {
        let big = g.shifted(offset);
        prop_assert_eq!(big.targets(), g.targets().iter().map(|q| q + offset).collect::<Vec<_>>());
        prop_assert_eq!(
            big.controls(),
            g.controls().iter().map(|&(q, s)| (q + offset, s)).collect::<Vec<_>>()
        );
        prop_assert!(big.target_matrix().approx_eq(&g.target_matrix(), 0.0));
    }

    /// Gate application is linear: G(a·x + b·y) = a·Gx + b·Gy.
    #[test]
    fn gate_application_is_linear(
        g in gate(N),
        x in common::state(N),
        y in common::state(N),
        a in -1.0f64..1.0,
        b in -1.0f64..1.0,
    ) {
        let mut combo = CVec(
            x.iter().zip(y.iter()).map(|(xi, yi)| xi * cr(a) + yi * cr(b)).collect()
        );
        let mut gx = x.clone();
        let mut gy = y.clone();
        kernel::apply_gate(&g, &mut combo, N, &KernelConfig::default());
        kernel::apply_gate(&g, &mut gx, N, &KernelConfig::default());
        kernel::apply_gate(&g, &mut gy, N, &KernelConfig::default());
        for i in 0..combo.len() {
            let expected = gx[i] * cr(a) + gy[i] * cr(b);
            prop_assert!((combo[i] - expected).norm() < 1e-10);
        }
    }
}

#[test]
fn toffoli_truth_table() {
    // exhaustive truth table of the Toffoli gate
    let g = Toffoli::new(0, 1, 2);
    for basis in 0..8usize {
        let mut s = CVec::basis_state(8, basis);
        kernel::apply_gate(&g, &mut s, 3, &KernelConfig::default());
        let out = s.iter().position(|z| z.norm() > 0.5).unwrap();
        let expected = if basis & 0b110 == 0b110 {
            basis ^ 1
        } else {
            basis
        };
        assert_eq!(out, expected, "Toffoli wrong on basis {basis:03b}");
    }
}

#[test]
fn mcx_open_control_truth_table() {
    // the paper's MCX([3,4],2,[0,1]) on all 32 basis states
    let g = MCX::new(&[3, 4], 2, &[0, 1]);
    for basis in 0..32usize {
        let mut s = CVec::basis_state(32, basis);
        kernel::apply_gate(&g, &mut s, 5, &KernelConfig::default());
        let out = s.iter().position(|z| z.norm() > 0.5).unwrap();
        let q3 = qclab_math::bits::qubit_bit(basis, 3, 5);
        let q4 = qclab_math::bits::qubit_bit(basis, 4, 5);
        let expected = if q3 == 0 && q4 == 1 {
            basis ^ (1 << qclab_math::bits::qubit_shift(2, 5))
        } else {
            basis
        };
        assert_eq!(out, expected);
    }
}
