//! Single-qubit measurements in arbitrary bases.
//!
//! Measurements in QCLAB are single-qubit operations (paper Sec. 3.3). The
//! default basis is Z; X- and Y-basis measurements are preconfigured, and
//! custom bases are supported through a user-supplied basis-change unitary
//! `V` whose **columns are the measurement basis states**. The simulator
//! applies `V†` before a standard Z measurement and `V` afterwards, so
//! probabilities and post-measurement states come out in the requested
//! basis — exactly the scheme the paper describes for its X-measurement
//! (`H — measure — H`).

use crate::error::QclabError;
use crate::gates::Gate;
use qclab_math::scalar::{c, cr};
use qclab_math::CMat;

const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// The measurement basis of a [`Measurement`].
#[derive(Clone, Debug, PartialEq)]
pub enum Basis {
    /// Computational basis (default).
    Z,
    /// Hadamard basis `{|+>, |->}`.
    X,
    /// Circular basis `{|+i>, |-i>}`.
    Y,
    /// User-defined basis: `label` for rendering, `change` is the unitary
    /// whose columns are the basis states.
    Custom { label: String, change: CMat },
}

impl Basis {
    /// The basis-change unitary `V` (columns = basis states). Measuring in
    /// this basis means applying `V†`, measuring in Z, then applying `V`.
    pub fn change_matrix(&self) -> CMat {
        match self {
            Basis::Z => CMat::identity(2),
            // columns |+>, |->
            Basis::X => CMat::mat2(cr(INV_SQRT2), cr(INV_SQRT2), cr(INV_SQRT2), cr(-INV_SQRT2)),
            // columns |+i> = (1, i)/√2 and |-i> = (1, -i)/√2
            Basis::Y => CMat::mat2(
                cr(INV_SQRT2),
                cr(INV_SQRT2),
                c(0.0, INV_SQRT2),
                c(0.0, -INV_SQRT2),
            ),
            Basis::Custom { change, .. } => change.clone(),
        }
    }

    /// The basis change as dense gates on qubit `q`: `(V†, V)`, applied
    /// before and after a Z measurement. `None` for Z, which needs no
    /// rotation.
    pub(crate) fn change_gates(&self, q: usize) -> Option<(Gate, Gate)> {
        let v = (*self != Basis::Z).then(|| self.change_matrix())?;
        let on_q = |name: &str, matrix| Gate::Custom {
            name: name.into(),
            qubits: vec![q],
            matrix,
        };
        Some((on_q("V†", v.dagger()), on_q("V", v)))
    }

    /// One-character label used by the circuit renderers.
    pub fn label(&self) -> String {
        match self {
            Basis::Z => "z".into(),
            Basis::X => "x".into(),
            Basis::Y => "y".into(),
            Basis::Custom { label, .. } => label.clone(),
        }
    }
}

/// A single-qubit measurement bound to a qubit and a basis.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    qubit: usize,
    basis: Basis,
}

impl Measurement {
    /// Measurement of `qubit` in the computational (Z) basis — the QCLAB
    /// default `qclab.Measurement(q)`.
    pub fn z(qubit: usize) -> Self {
        Measurement {
            qubit,
            basis: Basis::Z,
        }
    }

    /// Measurement in the X basis — `qclab.Measurement(q, 'x')`.
    pub fn x(qubit: usize) -> Self {
        Measurement {
            qubit,
            basis: Basis::X,
        }
    }

    /// Measurement in the Y basis — `qclab.Measurement(q, 'y')`.
    pub fn y(qubit: usize) -> Self {
        Measurement {
            qubit,
            basis: Basis::Y,
        }
    }

    /// Measurement in a custom basis given by the unitary `change` whose
    /// columns are the two basis states.
    pub fn in_basis(qubit: usize, label: &str, change: CMat) -> Result<Self, QclabError> {
        if change.rows() != 2 || change.cols() != 2 {
            return Err(QclabError::DimensionMismatch {
                expected: 2,
                actual: change.rows(),
            });
        }
        if !change.is_unitary(1e-10) {
            return Err(QclabError::NonUnitary(format!("basis '{label}'")));
        }
        Ok(Measurement {
            qubit,
            basis: Basis::Custom {
                label: label.to_string(),
                change,
            },
        })
    }

    /// The measured qubit.
    pub fn qubit(&self) -> usize {
        self.qubit
    }

    /// The measurement basis.
    pub fn basis(&self) -> &Basis {
        &self.basis
    }

    /// Returns a copy shifted by `offset` qubits.
    pub fn shifted(&self, offset: usize) -> Measurement {
        Measurement {
            qubit: self.qubit + offset,
            basis: self.basis.clone(),
        }
    }

    /// Validates against a register size.
    pub fn validate(&self, nb_qubits: usize) -> Result<(), QclabError> {
        if self.qubit >= nb_qubits {
            return Err(QclabError::QubitOutOfRange {
                qubit: self.qubit,
                nb_qubits,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_math::scalar::DEFAULT_TOL;

    #[test]
    fn default_basis_is_z() {
        let m = Measurement::z(0);
        assert_eq!(m.basis().label(), "z");
        assert!(m.basis().change_matrix().is_identity(0.0));
    }

    #[test]
    fn basis_change_matrices_are_unitary() {
        for b in [Basis::Z, Basis::X, Basis::Y] {
            assert!(b.change_matrix().is_unitary(DEFAULT_TOL));
        }
    }

    #[test]
    fn x_basis_columns_are_plus_minus() {
        let v = Basis::X.change_matrix();
        // V |0> = |+>
        let col0 = v.col(0);
        assert!((col0[0].re - INV_SQRT2).abs() < 1e-15);
        assert!((col0[1].re - INV_SQRT2).abs() < 1e-15);
        let col1 = v.col(1);
        assert!((col1[1].re + INV_SQRT2).abs() < 1e-15);
    }

    #[test]
    fn y_basis_columns_are_circular_states() {
        let v = Basis::Y.change_matrix();
        let col0 = v.col(0);
        assert!((col0[1].im - INV_SQRT2).abs() < 1e-15);
        let col1 = v.col(1);
        assert!((col1[1].im + INV_SQRT2).abs() < 1e-15);
        assert!(v.is_unitary(1e-15));
    }

    #[test]
    fn custom_basis_validation() {
        let ok = Measurement::in_basis(1, "h", Basis::X.change_matrix());
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().basis().label(), "h");
        let bad = Measurement::in_basis(1, "b", CMat::zeros(2, 2));
        assert!(bad.is_err());
        let wrong_dim = Measurement::in_basis(1, "b", CMat::identity(4));
        assert!(wrong_dim.is_err());
    }

    #[test]
    fn shift_and_validate() {
        let m = Measurement::x(1).shifted(2);
        assert_eq!(m.qubit(), 3);
        assert!(m.validate(4).is_ok());
        assert!(m.validate(3).is_err());
    }
}
