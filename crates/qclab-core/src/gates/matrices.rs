//! Unitary matrix definitions for every gate in the qclab gate zoo.
//!
//! Each function returns the gate's matrix **on its target qubits only**
//! (controls are handled structurally by the simulator, mirroring how
//! QCLAB builds controlled gates). Two-qubit matrices use the convention
//! that the first listed target qubit is the most significant sub-index
//! bit, consistent with [`qclab_math::bits`].
//!
//! Every matrix is defined once, as its row-major entries — which the
//! lowering reads without allocating (`Gate::write_target_matrix`) —
//! and each public function wraps those entries in a [`CMat`].

use qclab_math::scalar::{c, cis, cr, zero, C64};
use qclab_math::CMat;

const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Row-major entries of a one-qubit matrix.
pub(crate) type One = [C64; 4];
/// Row-major entries of a two-qubit matrix.
pub(crate) type Two = [C64; 16];

fn one(entries: One) -> CMat {
    CMat::from_vec(2, 2, entries.to_vec())
}

fn two(entries: Two) -> CMat {
    CMat::from_vec(4, 4, entries.to_vec())
}

/// A two-qubit matrix with `entries` at `(row, col)` and zeros elsewhere.
fn sparse4(entries: &[(usize, usize, C64)]) -> Two {
    let mut m = [zero(); 16];
    for &(row, col, v) in entries {
        m[4 * row + col] = v;
    }
    m
}

/// 2x2 identity.
pub fn identity() -> CMat {
    one(identity_entries())
}

pub(crate) fn identity_entries() -> One {
    [cr(1.0), zero(), zero(), cr(1.0)]
}

/// Hadamard gate.
pub fn hadamard() -> CMat {
    one(hadamard_entries())
}

pub(crate) fn hadamard_entries() -> One {
    [cr(INV_SQRT2), cr(INV_SQRT2), cr(INV_SQRT2), cr(-INV_SQRT2)]
}

/// Pauli-X (NOT).
pub fn pauli_x() -> CMat {
    one(pauli_x_entries())
}

pub(crate) fn pauli_x_entries() -> One {
    [cr(0.0), cr(1.0), cr(1.0), cr(0.0)]
}

/// Pauli-Y.
pub fn pauli_y() -> CMat {
    one(pauli_y_entries())
}

pub(crate) fn pauli_y_entries() -> One {
    [cr(0.0), c(0.0, -1.0), c(0.0, 1.0), cr(0.0)]
}

/// Pauli-Z.
pub fn pauli_z() -> CMat {
    one(pauli_z_entries())
}

pub(crate) fn pauli_z_entries() -> One {
    [cr(1.0), cr(0.0), cr(0.0), cr(-1.0)]
}

/// Phase gate S = diag(1, i) = √Z.
pub fn s_gate() -> CMat {
    one(s_entries())
}

pub(crate) fn s_entries() -> One {
    [cr(1.0), zero(), zero(), c(0.0, 1.0)]
}

/// S† = diag(1, -i).
pub fn sdg_gate() -> CMat {
    one(sdg_entries())
}

pub(crate) fn sdg_entries() -> One {
    [cr(1.0), zero(), zero(), c(0.0, -1.0)]
}

/// T = diag(1, e^{iπ/4}) = √S.
pub fn t_gate() -> CMat {
    one(t_entries())
}

pub(crate) fn t_entries() -> One {
    [cr(1.0), zero(), zero(), cis(std::f64::consts::FRAC_PI_4)]
}

/// T† = diag(1, e^{-iπ/4}).
pub fn tdg_gate() -> CMat {
    one(tdg_entries())
}

pub(crate) fn tdg_entries() -> One {
    [cr(1.0), zero(), zero(), cis(-std::f64::consts::FRAC_PI_4)]
}

/// √X gate.
pub fn sx_gate() -> CMat {
    one(sx_entries())
}

pub(crate) fn sx_entries() -> One {
    [c(0.5, 0.5), c(0.5, -0.5), c(0.5, -0.5), c(0.5, 0.5)]
}

/// (√X)† gate.
pub fn sxdg_gate() -> CMat {
    one(sxdg_entries())
}

pub(crate) fn sxdg_entries() -> One {
    [c(0.5, -0.5), c(0.5, 0.5), c(0.5, 0.5), c(0.5, -0.5)]
}

/// Rotation about X: `RX(θ) = exp(-iθX/2)`.
pub fn rotation_x(theta: f64) -> CMat {
    one(rotation_x_entries(theta))
}

pub(crate) fn rotation_x_entries(theta: f64) -> One {
    let (co, si) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [cr(co), c(0.0, -si), c(0.0, -si), cr(co)]
}

/// Rotation about Y: `RY(θ) = exp(-iθY/2)`.
pub fn rotation_y(theta: f64) -> CMat {
    one(rotation_y_entries(theta))
}

pub(crate) fn rotation_y_entries(theta: f64) -> One {
    let (co, si) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [cr(co), cr(-si), cr(si), cr(co)]
}

/// Rotation about Z: `RZ(θ) = exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2})`.
pub fn rotation_z(theta: f64) -> CMat {
    one(rotation_z_entries(theta))
}

pub(crate) fn rotation_z_entries(theta: f64) -> One {
    [cis(-theta / 2.0), zero(), zero(), cis(theta / 2.0)]
}

/// Phase gate `P(θ) = diag(1, e^{iθ})` (QASM `u1`/`p`).
pub fn phase(theta: f64) -> CMat {
    one(phase_entries(theta))
}

pub(crate) fn phase_entries(theta: f64) -> One {
    [cr(1.0), zero(), zero(), cis(theta)]
}

/// `U2(φ, λ)` (QASM convention): a single-qubit gate built from two
/// quarter rotations.
pub fn u2(phi: f64, lambda: f64) -> CMat {
    one(u2_entries(phi, lambda))
}

pub(crate) fn u2_entries(phi: f64, lambda: f64) -> One {
    [
        cr(INV_SQRT2),
        cis(lambda).scale_re(-INV_SQRT2),
        cis(phi).scale_re(INV_SQRT2),
        cis(phi + lambda).scale_re(INV_SQRT2),
    ]
}

/// `U3(θ, φ, λ)` — the general single-qubit unitary up to global phase
/// (QASM convention).
pub fn u3(theta: f64, phi: f64, lambda: f64) -> CMat {
    one(u3_entries(theta, phi, lambda))
}

pub(crate) fn u3_entries(theta: f64, phi: f64, lambda: f64) -> One {
    let (co, si) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        cr(co),
        cis(lambda).scale_re(-si),
        cis(phi).scale_re(si),
        cis(phi + lambda).scale_re(co),
    ]
}

/// SWAP gate on two qubits.
pub fn swap() -> CMat {
    two(swap_entries())
}

pub(crate) fn swap_entries() -> Two {
    sparse4(&[
        (0, 0, cr(1.0)),
        (1, 2, cr(1.0)),
        (2, 1, cr(1.0)),
        (3, 3, cr(1.0)),
    ])
}

/// iSWAP gate on two qubits.
pub fn iswap() -> CMat {
    two(iswap_entries())
}

pub(crate) fn iswap_entries() -> Two {
    sparse4(&[
        (0, 0, cr(1.0)),
        (1, 2, c(0.0, 1.0)),
        (2, 1, c(0.0, 1.0)),
        (3, 3, cr(1.0)),
    ])
}

/// Two-qubit rotation `RXX(θ) = exp(-iθ X⊗X / 2)`.
pub fn rotation_xx(theta: f64) -> CMat {
    two(rotation_xx_entries(theta))
}

pub(crate) fn rotation_xx_entries(theta: f64) -> Two {
    let (co, si) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    let mis = c(0.0, -si);
    sparse4(&[
        (0, 0, cr(co)),
        (0, 3, mis),
        (1, 1, cr(co)),
        (1, 2, mis),
        (2, 2, cr(co)),
        (2, 1, mis),
        (3, 3, cr(co)),
        (3, 0, mis),
    ])
}

/// Two-qubit rotation `RYY(θ) = exp(-iθ Y⊗Y / 2)`.
pub fn rotation_yy(theta: f64) -> CMat {
    two(rotation_yy_entries(theta))
}

pub(crate) fn rotation_yy_entries(theta: f64) -> Two {
    let (co, si) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    let mis = c(0.0, -si);
    let pis = c(0.0, si);
    sparse4(&[
        (0, 0, cr(co)),
        (1, 1, cr(co)),
        (2, 2, cr(co)),
        (3, 3, cr(co)),
        (0, 3, pis),
        (3, 0, pis),
        (1, 2, mis),
        (2, 1, mis),
    ])
}

/// Two-qubit rotation `RZZ(θ) = exp(-iθ Z⊗Z / 2)`.
pub fn rotation_zz(theta: f64) -> CMat {
    two(rotation_zz_entries(theta))
}

pub(crate) fn rotation_zz_entries(theta: f64) -> Two {
    let e_m = cis(-theta / 2.0);
    let e_p = cis(theta / 2.0);
    sparse4(&[(0, 0, e_m), (1, 1, e_p), (2, 2, e_p), (3, 3, e_m)])
}

/// Helper for scaling a complex number by a real factor, used by the
/// U-gate constructors above.
trait ScaleRe {
    fn scale_re(self, f: f64) -> C64;
}

impl ScaleRe for C64 {
    #[inline]
    fn scale_re(self, f: f64) -> C64 {
        C64::new(self.re * f, self.im * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{shape, Shape};
    use qclab_math::scalar::DEFAULT_TOL;

    const PI: f64 = std::f64::consts::PI;

    fn all_fixed() -> Vec<(&'static str, CMat)> {
        vec![
            ("I", identity()),
            ("H", hadamard()),
            ("X", pauli_x()),
            ("Y", pauli_y()),
            ("Z", pauli_z()),
            ("S", s_gate()),
            ("Sdg", sdg_gate()),
            ("T", t_gate()),
            ("Tdg", tdg_gate()),
            ("SX", sx_gate()),
            ("SXdg", sxdg_gate()),
            ("SWAP", swap()),
            ("iSWAP", iswap()),
        ]
    }

    #[test]
    fn all_fixed_gates_are_unitary() {
        for (name, m) in all_fixed() {
            assert!(m.is_unitary(DEFAULT_TOL), "{name} is not unitary");
        }
    }

    #[test]
    fn parametric_gates_are_unitary() {
        for &theta in &[0.0, 0.3, PI / 2.0, PI, 2.7, -1.1] {
            for m in [
                rotation_x(theta),
                rotation_y(theta),
                rotation_z(theta),
                phase(theta),
                rotation_xx(theta),
                rotation_yy(theta),
                rotation_zz(theta),
                u2(theta, 0.4),
                u3(theta, 0.4, -0.9),
            ] {
                assert!(m.is_unitary(DEFAULT_TOL));
            }
        }
    }

    #[test]
    fn sqrt_gate_relations() {
        assert!(s_gate().matmul(&s_gate()).approx_eq(&pauli_z(), 1e-15));
        assert!(t_gate().matmul(&t_gate()).approx_eq(&s_gate(), 1e-15));
        assert!(sx_gate().matmul(&sx_gate()).approx_eq(&pauli_x(), 1e-15));
        assert!(sdg_gate().matmul(&s_gate()).is_identity(1e-15));
        assert!(tdg_gate().matmul(&t_gate()).is_identity(1e-15));
        assert!(sxdg_gate().matmul(&sx_gate()).is_identity(1e-15));
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let hxh = hadamard().matmul(&pauli_x()).matmul(&hadamard());
        assert!(hxh.approx_eq(&pauli_z(), 1e-15));
    }

    #[test]
    fn rotations_at_special_angles() {
        // RX(π) = -iX
        assert!(rotation_x(PI).approx_eq(&pauli_x().scale(c(0.0, -1.0)), 1e-15));
        // RY(π) = -iY
        assert!(rotation_y(PI).approx_eq(&pauli_y().scale(c(0.0, -1.0)), 1e-15));
        // RZ(π) = -iZ
        assert!(rotation_z(PI).approx_eq(&pauli_z().scale(c(0.0, -1.0)), 1e-15));
        // RX(0) = I
        assert!(rotation_x(0.0).is_identity(1e-15));
    }

    #[test]
    fn rotation_composition() {
        // RZ(a)·RZ(b) = RZ(a+b)
        let m = rotation_z(0.3).matmul(&rotation_z(0.9));
        assert!(m.approx_eq(&rotation_z(1.2), 1e-14));
        let m = rotation_x(0.3).matmul(&rotation_x(0.9));
        assert!(m.approx_eq(&rotation_x(1.2), 1e-14));
    }

    #[test]
    fn phase_vs_rz_differ_by_global_phase() {
        // P(θ) = e^{iθ/2} RZ(θ)
        let theta = 0.77;
        let lhs = phase(theta);
        let rhs = rotation_z(theta).scale(cis(theta / 2.0));
        assert!(lhs.approx_eq(&rhs, 1e-15));
    }

    #[test]
    fn u3_specializations() {
        // U3(π/2, φ, λ) = U2(φ, λ)
        assert!(u3(PI / 2.0, 0.3, 0.7).approx_eq(&u2(0.3, 0.7), 1e-15));
        // U3(0, 0, λ) = P(λ)
        assert!(u3(0.0, 0.0, 0.9).approx_eq(&phase(0.9), 1e-15));
        // U3(π, 0, π) = X
        assert!(u3(PI, 0.0, PI).approx_eq(&pauli_x(), 1e-15));
    }

    #[test]
    fn swap_is_self_inverse_and_iswap_is_not() {
        assert!(swap().matmul(&swap()).is_identity(1e-15));
        assert!(!iswap().matmul(&iswap()).is_identity(1e-15));
        assert!(iswap().pow(4).is_identity(1e-15));
    }

    #[test]
    fn two_qubit_rotations_match_exponentials() {
        // RZZ(θ) must equal cos(θ/2) I - i sin(θ/2) Z⊗Z
        let theta: f64 = 0.83;
        let zz = pauli_z().kron(&pauli_z());
        let expected = &CMat::identity(4).scale(cr((theta / 2.0).cos()))
            + &zz.scale(c(0.0, -(theta / 2.0).sin()));
        assert!(rotation_zz(theta).approx_eq(&expected, 1e-15));

        let xx = pauli_x().kron(&pauli_x());
        let expected = &CMat::identity(4).scale(cr((theta / 2.0).cos()))
            + &xx.scale(c(0.0, -(theta / 2.0).sin()));
        assert!(rotation_xx(theta).approx_eq(&expected, 1e-15));

        let yy = pauli_y().kron(&pauli_y());
        let expected = &CMat::identity(4).scale(cr((theta / 2.0).cos()))
            + &yy.scale(c(0.0, -(theta / 2.0).sin()));
        assert!(rotation_yy(theta).approx_eq(&expected, 1e-15));
    }

    #[test]
    fn diagonal_gates_are_diagonal() {
        for m in [
            s_gate(),
            sdg_gate(),
            t_gate(),
            tdg_gate(),
            rotation_z(0.4),
            phase(0.4),
            rotation_zz(0.4),
        ] {
            assert_eq!(shape(m.rows(), m.as_slice(), 0.0), Shape::Diagonal);
        }
        assert_eq!(shape(2, hadamard().as_slice(), 0.0), Shape::Dense);
    }
}
