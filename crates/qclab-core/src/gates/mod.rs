//! The qclab gate zoo: a closed representation of every quantum gate the
//! toolbox knows, mirroring MATLAB QCLAB's `qclab.qgates` namespace.
//!
//! Gates are values of the [`Gate`] enum. Users normally construct them
//! through the MATLAB-style factories in [`factories`] (`Hadamard::new(0)`,
//! `CNOT::new(0, 1)`, `MCX::new(&[3, 4], 2, &[0, 1])`, …). Controlled gates
//! are represented structurally — a list of `(control qubit, control
//! state)` pairs around a target gate — which is also how the simulator
//! applies them, exactly like QCLAB's controlled-gate objects.

pub mod factories;
pub mod matrices;

use crate::error::QclabError;
use qclab_math::{CMat, C64};

/// A gate's target qubits, borrowed where the gate stores them as one
/// list and held inline where it stores them as two fields.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Qubits<'a> {
    Borrowed(&'a [usize]),
    Pair([usize; 2]),
}

impl std::ops::Deref for Qubits<'_> {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            Qubits::Borrowed(qs) => qs,
            Qubits::Pair(qs) => qs,
        }
    }
}

/// How a target matrix acts on basis states — the one question the
/// dense kernel class, the sparse executor and the sparse support bound
/// ask of a gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Every off-diagonal entry is zero: each basis state is only
    /// rephased.
    Diagonal,
    /// Not diagonal, but no column holds more than one nonzero: each
    /// basis state maps to at most one (phased) basis state — X, Y, CX,
    /// SWAP.
    Permutation,
    /// Some column holds two nonzeros: a basis state spreads.
    Dense,
}

/// The [`Shape`] of the row-major `dim × dim` matrix `entries`, where an
/// entry counts as nonzero only when its magnitude exceeds `floor`.
///
/// The floor is the caller's: 0 where dropping an entry would change
/// arithmetic (the kernel class, the sparse in-place path), the sparse
/// executor's prune floor where only what survives pruning matters (the
/// support bound).
pub(crate) fn shape(dim: usize, entries: &[C64], floor: f64) -> Shape {
    debug_assert_eq!(entries.len(), dim * dim);
    // the zero test spares most entries of a sparse matrix the `hypot`
    let counts = |e: C64| (e.re != 0.0 || e.im != 0.0) && e.norm() > floor;
    let mut shape = Shape::Diagonal;
    for col in 0..dim {
        let mut nonzero = (0..dim).filter(|&row| counts(entries[row * dim + col]));
        match (nonzero.next(), nonzero.next()) {
            (_, Some(_)) => return Shape::Dense,
            (Some(row), None) if row != col => shape = Shape::Permutation,
            _ => {}
        }
    }
    shape
}

/// A quantum gate instance: a unitary bound to specific qubits.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Single-qubit identity.
    Identity(usize),
    /// Hadamard gate.
    Hadamard(usize),
    /// Pauli-X (NOT) gate.
    PauliX(usize),
    /// Pauli-Y gate.
    PauliY(usize),
    /// Pauli-Z gate.
    PauliZ(usize),
    /// Phase gate S = √Z.
    S(usize),
    /// Adjoint phase gate S†.
    Sdg(usize),
    /// T gate = √S.
    T(usize),
    /// Adjoint T gate.
    Tdg(usize),
    /// √X gate.
    SX(usize),
    /// Adjoint √X gate.
    SXdg(usize),
    /// Rotation about the X axis by `theta`.
    RotationX { qubit: usize, theta: f64 },
    /// Rotation about the Y axis by `theta`.
    RotationY { qubit: usize, theta: f64 },
    /// Rotation about the Z axis by `theta`.
    RotationZ { qubit: usize, theta: f64 },
    /// Phase gate `diag(1, e^{iθ})`.
    Phase { qubit: usize, theta: f64 },
    /// QASM `u2` gate.
    U2 { qubit: usize, phi: f64, lambda: f64 },
    /// QASM `u3` gate — general single-qubit unitary up to global phase.
    U3 {
        qubit: usize,
        theta: f64,
        phi: f64,
        lambda: f64,
    },
    /// SWAP of two qubits.
    Swap(usize, usize),
    /// iSWAP of two qubits.
    ISwap(usize, usize),
    /// Two-qubit rotation `exp(-iθ X⊗X / 2)`.
    RotationXX { qubits: [usize; 2], theta: f64 },
    /// Two-qubit rotation `exp(-iθ Y⊗Y / 2)`.
    RotationYY { qubits: [usize; 2], theta: f64 },
    /// Two-qubit rotation `exp(-iθ Z⊗Z / 2)`.
    RotationZZ { qubits: [usize; 2], theta: f64 },
    /// A gate conditioned on one or more control qubits, each with a
    /// control state (1 = filled dot, 0 = open dot).
    Controlled {
        controls: Vec<usize>,
        control_states: Vec<u8>,
        target: Box<Gate>,
    },
    /// A user-defined gate given by an explicit unitary on `qubits` (the
    /// first listed qubit is the most significant sub-index bit).
    Custom {
        name: String,
        qubits: Vec<usize>,
        matrix: CMat,
    },
}

impl Gate {
    /// Short display name of the gate (used by the renderers and QASM).
    pub fn name(&self) -> String {
        match self {
            Gate::Identity(_) => "I".into(),
            Gate::Hadamard(_) => "H".into(),
            Gate::PauliX(_) => "X".into(),
            Gate::PauliY(_) => "Y".into(),
            Gate::PauliZ(_) => "Z".into(),
            Gate::S(_) => "S".into(),
            Gate::Sdg(_) => "S†".into(),
            Gate::T(_) => "T".into(),
            Gate::Tdg(_) => "T†".into(),
            Gate::SX(_) => "√X".into(),
            Gate::SXdg(_) => "√X†".into(),
            Gate::RotationX { .. } => "RX".into(),
            Gate::RotationY { .. } => "RY".into(),
            Gate::RotationZ { .. } => "RZ".into(),
            Gate::Phase { .. } => "P".into(),
            Gate::U2 { .. } => "U2".into(),
            Gate::U3 { .. } => "U3".into(),
            Gate::Swap(..) => "SWAP".into(),
            Gate::ISwap(..) => "iSWAP".into(),
            Gate::RotationXX { .. } => "RXX".into(),
            Gate::RotationYY { .. } => "RYY".into(),
            Gate::RotationZZ { .. } => "RZZ".into(),
            Gate::Controlled { target, .. } => format!("C{}", target.name()),
            Gate::Custom { name, .. } => name.clone(),
        }
    }

    /// [`targets`](Self::targets) without an allocation.
    pub(crate) fn target_qubits(&self) -> Qubits<'_> {
        match self {
            Gate::Identity(q)
            | Gate::Hadamard(q)
            | Gate::PauliX(q)
            | Gate::PauliY(q)
            | Gate::PauliZ(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::SX(q)
            | Gate::SXdg(q)
            | Gate::RotationX { qubit: q, .. }
            | Gate::RotationY { qubit: q, .. }
            | Gate::RotationZ { qubit: q, .. }
            | Gate::Phase { qubit: q, .. }
            | Gate::U2 { qubit: q, .. }
            | Gate::U3 { qubit: q, .. } => Qubits::Borrowed(std::slice::from_ref(q)),
            Gate::Swap(a, b) | Gate::ISwap(a, b) => Qubits::Pair([*a, *b]),
            Gate::RotationXX { qubits, .. }
            | Gate::RotationYY { qubits, .. }
            | Gate::RotationZZ { qubits, .. } => Qubits::Borrowed(qubits),
            Gate::Controlled { target, .. } => target.target_qubits(),
            Gate::Custom { qubits, .. } => Qubits::Borrowed(qubits),
        }
    }

    /// [`controls`](Self::controls) without an allocation: the control
    /// qubits and their states, both empty for uncontrolled gates.
    pub(crate) fn control_lists(&self) -> (&[usize], &[u8]) {
        match self {
            Gate::Controlled {
                controls,
                control_states,
                ..
            } => {
                // pairs, like `controls()` (unequal lengths fail `validate`)
                let n = controls.len().min(control_states.len());
                (&controls[..n], &control_states[..n])
            }
            _ => (&[], &[]),
        }
    }

    /// The target qubits the gate's [`target_matrix`](Self::target_matrix)
    /// acts on, in matrix order (first = most significant sub-index bit).
    pub fn targets(&self) -> Vec<usize> {
        self.target_qubits().to_vec()
    }

    /// Control qubits with their control states; empty for uncontrolled
    /// gates.
    pub fn controls(&self) -> Vec<(usize, u8)> {
        let (qubits, states) = self.control_lists();
        qubits.iter().copied().zip(states.iter().copied()).collect()
    }

    /// All qubits the gate touches (controls followed by targets).
    pub fn qubits(&self) -> Vec<usize> {
        self.qubit_iter().collect()
    }

    /// [`qubits`](Self::qubits) without an allocation.
    pub(crate) fn qubit_iter(&self) -> impl Iterator<Item = usize> + '_ {
        let targets = self.target_qubits();
        let controls = self.control_lists().0.iter().copied();
        controls.chain((0..targets.len()).map(move |i| targets[i]))
    }

    /// The number of target qubits.
    pub fn nb_targets(&self) -> usize {
        self.target_qubits().len()
    }

    /// The unitary matrix on the **target** qubits only (controls are
    /// handled structurally during application).
    pub fn target_matrix(&self) -> CMat {
        match self {
            Gate::Controlled { target, .. } => target.target_matrix(),
            Gate::Custom { matrix, .. } => matrix.clone(),
            _ => {
                let dim = 1 << self.nb_targets();
                let mut entries = Vec::with_capacity(dim * dim);
                self.write_target_matrix(&mut entries);
                CMat::from_vec(dim, dim, entries)
            }
        }
    }

    /// Appends the row-major entries of
    /// [`target_matrix`](Self::target_matrix) to `out` and returns its
    /// dimension — the matrix without a `CMat` of its own.
    pub(crate) fn write_target_matrix(&self, out: &mut Vec<C64>) -> usize {
        use matrices as m;
        let one = |out: &mut Vec<C64>, entries: m::One| {
            out.extend_from_slice(&entries);
            2
        };
        let two = |out: &mut Vec<C64>, entries: m::Two| {
            out.extend_from_slice(&entries);
            4
        };
        match self {
            Gate::Identity(_) => one(out, m::identity_entries()),
            Gate::Hadamard(_) => one(out, m::hadamard_entries()),
            Gate::PauliX(_) => one(out, m::pauli_x_entries()),
            Gate::PauliY(_) => one(out, m::pauli_y_entries()),
            Gate::PauliZ(_) => one(out, m::pauli_z_entries()),
            Gate::S(_) => one(out, m::s_entries()),
            Gate::Sdg(_) => one(out, m::sdg_entries()),
            Gate::T(_) => one(out, m::t_entries()),
            Gate::Tdg(_) => one(out, m::tdg_entries()),
            Gate::SX(_) => one(out, m::sx_entries()),
            Gate::SXdg(_) => one(out, m::sxdg_entries()),
            Gate::RotationX { theta, .. } => one(out, m::rotation_x_entries(*theta)),
            Gate::RotationY { theta, .. } => one(out, m::rotation_y_entries(*theta)),
            Gate::RotationZ { theta, .. } => one(out, m::rotation_z_entries(*theta)),
            Gate::Phase { theta, .. } => one(out, m::phase_entries(*theta)),
            Gate::U2 { phi, lambda, .. } => one(out, m::u2_entries(*phi, *lambda)),
            Gate::U3 {
                theta, phi, lambda, ..
            } => one(out, m::u3_entries(*theta, *phi, *lambda)),
            Gate::Swap(..) => two(out, m::swap_entries()),
            Gate::ISwap(..) => two(out, m::iswap_entries()),
            Gate::RotationXX { theta, .. } => two(out, m::rotation_xx_entries(*theta)),
            Gate::RotationYY { theta, .. } => two(out, m::rotation_yy_entries(*theta)),
            Gate::RotationZZ { theta, .. } => two(out, m::rotation_zz_entries(*theta)),
            Gate::Controlled { target, .. } => target.write_target_matrix(out),
            Gate::Custom { matrix, .. } => {
                out.extend_from_slice(matrix.as_slice());
                matrix.rows()
            }
        }
    }

    /// The adjoint (inverse) gate.
    pub fn adjoint(&self) -> Gate {
        match self {
            Gate::Identity(q) => Gate::Identity(*q),
            Gate::Hadamard(q) => Gate::Hadamard(*q),
            Gate::PauliX(q) => Gate::PauliX(*q),
            Gate::PauliY(q) => Gate::PauliY(*q),
            Gate::PauliZ(q) => Gate::PauliZ(*q),
            Gate::S(q) => Gate::Sdg(*q),
            Gate::Sdg(q) => Gate::S(*q),
            Gate::T(q) => Gate::Tdg(*q),
            Gate::Tdg(q) => Gate::T(*q),
            Gate::SX(q) => Gate::SXdg(*q),
            Gate::SXdg(q) => Gate::SX(*q),
            Gate::RotationX { qubit, theta } => Gate::RotationX {
                qubit: *qubit,
                theta: -theta,
            },
            Gate::RotationY { qubit, theta } => Gate::RotationY {
                qubit: *qubit,
                theta: -theta,
            },
            Gate::RotationZ { qubit, theta } => Gate::RotationZ {
                qubit: *qubit,
                theta: -theta,
            },
            Gate::Phase { qubit, theta } => Gate::Phase {
                qubit: *qubit,
                theta: -theta,
            },
            // U2/U3 adjoints fall back to the general U3 form:
            // U3(θ,φ,λ)† = U3(-θ,-λ,-φ).
            Gate::U2 { qubit, phi, lambda } => Gate::U3 {
                qubit: *qubit,
                theta: -std::f64::consts::FRAC_PI_2,
                phi: -lambda,
                lambda: -phi,
            },
            Gate::U3 {
                qubit,
                theta,
                phi,
                lambda,
            } => Gate::U3 {
                qubit: *qubit,
                theta: -theta,
                phi: -lambda,
                lambda: -phi,
            },
            Gate::Swap(a, b) => Gate::Swap(*a, *b),
            Gate::ISwap(a, b) => Gate::Custom {
                name: "iSWAP†".into(),
                qubits: vec![*a, *b],
                matrix: matrices::iswap().dagger(),
            },
            Gate::RotationXX { qubits, theta } => Gate::RotationXX {
                qubits: *qubits,
                theta: -theta,
            },
            Gate::RotationYY { qubits, theta } => Gate::RotationYY {
                qubits: *qubits,
                theta: -theta,
            },
            Gate::RotationZZ { qubits, theta } => Gate::RotationZZ {
                qubits: *qubits,
                theta: -theta,
            },
            Gate::Controlled {
                controls,
                control_states,
                target,
            } => Gate::Controlled {
                controls: controls.clone(),
                control_states: control_states.clone(),
                target: Box::new(target.adjoint()),
            },
            Gate::Custom {
                name,
                qubits,
                matrix,
            } => Gate::Custom {
                name: format!("{name}†"),
                qubits: qubits.clone(),
                matrix: matrix.dagger(),
            },
        }
    }

    /// Wraps this gate with an additional control qubit.
    ///
    /// Nested controls are flattened, so controlling a `Controlled` gate
    /// extends its control list rather than nesting boxes.
    pub fn controlled(self, control: usize, control_state: u8) -> Gate {
        assert!(control_state <= 1, "control state must be 0 or 1");
        match self {
            Gate::Controlled {
                mut controls,
                mut control_states,
                target,
            } => {
                controls.push(control);
                control_states.push(control_state);
                Gate::Controlled {
                    controls,
                    control_states,
                    target,
                }
            }
            other => Gate::Controlled {
                controls: vec![control],
                control_states: vec![control_state],
                target: Box::new(other),
            },
        }
    }

    /// Returns a copy of the gate with every qubit index shifted by
    /// `offset` (used when splicing sub-circuits into a parent register).
    pub fn shifted(&self, offset: usize) -> Gate {
        let mut g = self.clone();
        g.shift_in_place(offset);
        g
    }

    fn shift_in_place(&mut self, offset: usize) {
        match self {
            Gate::Identity(q)
            | Gate::Hadamard(q)
            | Gate::PauliX(q)
            | Gate::PauliY(q)
            | Gate::PauliZ(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::SX(q)
            | Gate::SXdg(q) => *q += offset,
            Gate::RotationX { qubit, .. }
            | Gate::RotationY { qubit, .. }
            | Gate::RotationZ { qubit, .. }
            | Gate::Phase { qubit, .. }
            | Gate::U2 { qubit, .. }
            | Gate::U3 { qubit, .. } => *qubit += offset,
            Gate::Swap(a, b) | Gate::ISwap(a, b) => {
                *a += offset;
                *b += offset;
            }
            Gate::RotationXX { qubits, .. }
            | Gate::RotationYY { qubits, .. }
            | Gate::RotationZZ { qubits, .. } => {
                qubits[0] += offset;
                qubits[1] += offset;
            }
            Gate::Controlled {
                controls, target, ..
            } => {
                for c in controls.iter_mut() {
                    *c += offset;
                }
                target.shift_in_place(offset);
            }
            Gate::Custom { qubits, .. } => {
                for q in qubits.iter_mut() {
                    *q += offset;
                }
            }
        }
    }

    /// Returns a copy of the gate with every qubit index `q` replaced by
    /// `map[q]` (used by the locality pass to relabel logical qubits to
    /// their physical slots; see `qclab_core::program`).
    pub fn relabeled(&self, map: &[usize]) -> Gate {
        let mut g = self.clone();
        g.relabel_in_place(map);
        g
    }

    /// [`relabeled`](Self::relabeled) in place.
    pub(crate) fn relabel_in_place(&mut self, map: &[usize]) {
        match self {
            Gate::Identity(q)
            | Gate::Hadamard(q)
            | Gate::PauliX(q)
            | Gate::PauliY(q)
            | Gate::PauliZ(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::SX(q)
            | Gate::SXdg(q) => *q = map[*q],
            Gate::RotationX { qubit, .. }
            | Gate::RotationY { qubit, .. }
            | Gate::RotationZ { qubit, .. }
            | Gate::Phase { qubit, .. }
            | Gate::U2 { qubit, .. }
            | Gate::U3 { qubit, .. } => *qubit = map[*qubit],
            Gate::Swap(a, b) | Gate::ISwap(a, b) => {
                *a = map[*a];
                *b = map[*b];
            }
            Gate::RotationXX { qubits, .. }
            | Gate::RotationYY { qubits, .. }
            | Gate::RotationZZ { qubits, .. } => {
                qubits[0] = map[qubits[0]];
                qubits[1] = map[qubits[1]];
            }
            Gate::Controlled {
                controls, target, ..
            } => {
                for c in controls.iter_mut() {
                    *c = map[*c];
                }
                target.relabel_in_place(map);
            }
            Gate::Custom { qubits, .. } => {
                for q in qubits.iter_mut() {
                    *q = map[*q];
                }
            }
        }
    }

    /// Validates the gate against a register of `nb_qubits` qubits:
    /// all qubit indices in range and mutually distinct, control states
    /// binary, custom matrices unitary and of matching dimension.
    pub fn validate(&self, nb_qubits: usize) -> Result<(), QclabError> {
        // the qubits, sorted in place: on the stack for the gates of
        // every-day width
        let mut stack = [0usize; 8];
        let mut heap = Vec::new();
        let k = self.control_lists().0.len() + self.target_qubits().len();
        let sorted = if k <= stack.len() {
            &mut stack[..k]
        } else {
            heap.resize(k, 0);
            &mut heap[..]
        };
        for (slot, qubit) in sorted.iter_mut().zip(self.qubit_iter()) {
            if qubit >= nb_qubits {
                return Err(QclabError::QubitOutOfRange { qubit, nb_qubits });
            }
            *slot = qubit;
        }
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(QclabError::DuplicateQubits {
                qubits: self.qubits(),
            });
        }
        if let Gate::Controlled {
            controls,
            control_states,
            target,
        } = self
        {
            if controls.len() != control_states.len() {
                return Err(QclabError::InvalidControlSpec(
                    "controls and control_states length mismatch".into(),
                ));
            }
            if controls.is_empty() {
                return Err(QclabError::InvalidControlSpec(
                    "controlled gate without controls".into(),
                ));
            }
            if control_states.iter().any(|&s| s > 1) {
                return Err(QclabError::InvalidControlSpec(
                    "control states must be 0 or 1".into(),
                ));
            }
            if matches!(**target, Gate::Controlled { .. }) {
                return Err(QclabError::InvalidControlSpec(
                    "nested Controlled gates must be flattened".into(),
                ));
            }
        }
        if let Gate::Custom { qubits, matrix, .. } = self {
            let dim = 1usize << qubits.len();
            if matrix.rows() != dim || matrix.cols() != dim {
                return Err(QclabError::DimensionMismatch {
                    expected: dim,
                    actual: matrix.rows(),
                });
            }
            if !matrix.is_unitary(1e-10) {
                return Err(QclabError::NonUnitary(self.name()));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let controls = self.controls();
        if controls.is_empty() {
            write!(f, "{}({:?})", self.name(), self.targets())
        } else {
            write!(
                f,
                "{}(ctrl {:?}, tgt {:?})",
                self.name(),
                controls,
                self.targets()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::factories::*;
    use super::*;
    use qclab_math::scalar::DEFAULT_TOL;

    #[test]
    fn every_gate_target_matrix_is_unitary() {
        let gates: Vec<Gate> = vec![
            IdentityGate::new(0),
            Hadamard::new(0),
            PauliX::new(0),
            PauliY::new(0),
            PauliZ::new(0),
            SGate::new(0),
            SdgGate::new(0),
            TGate::new(0),
            TdgGate::new(0),
            SXGate::new(0),
            SXdgGate::new(0),
            RotationX::new(0, 0.3),
            RotationY::new(0, 0.3),
            RotationZ::new(0, 0.3),
            PhaseGate::new(0, 0.3),
            U2Gate::new(0, 0.1, 0.2),
            U3Gate::new(0, 0.1, 0.2, 0.3),
            SwapGate::new(0, 1),
            ISwapGate::new(0, 1),
            RotationXX::new(0, 1, 0.5),
            RotationYY::new(0, 1, 0.5),
            RotationZZ::new(0, 1, 0.5),
            CNOT::new(0, 1),
            CZ::new(0, 1),
            CY::new(0, 1),
            CH::new(0, 1),
            CRX::new(0, 1, 0.4),
            CRY::new(0, 1, 0.4),
            CRZ::new(0, 1, 0.4),
            CPhase::new(0, 1, 0.4),
            Toffoli::new(0, 1, 2),
            MCX::new(&[0, 1], 2, &[1, 0]),
            MCZ::new(&[0, 1], 2, &[1, 1]),
        ];
        for g in gates {
            assert!(
                g.target_matrix().is_unitary(DEFAULT_TOL),
                "{} not unitary",
                g
            );
            g.validate(3).unwrap();
        }
    }

    #[test]
    fn adjoint_is_inverse_for_all_gates() {
        let gates: Vec<Gate> = vec![
            Hadamard::new(1),
            PauliY::new(1),
            SGate::new(1),
            TGate::new(1),
            SXGate::new(1),
            RotationX::new(1, 1.1),
            RotationZ::new(1, -0.7),
            PhaseGate::new(1, 2.2),
            U2Gate::new(1, 0.3, 0.9),
            U3Gate::new(1, 1.0, 0.3, 0.9),
            ISwapGate::new(0, 1),
            RotationYY::new(0, 1, 0.8),
            CNOT::new(0, 1),
            CRZ::new(0, 1, 0.6),
            MCX::new(&[0, 2], 1, &[1, 0]),
        ];
        for g in gates {
            let prod = g.adjoint().target_matrix().matmul(&g.target_matrix());
            assert!(prod.is_identity(1e-12), "{}† · {} != I", g, g);
            // adjoint preserves qubit placement
            assert_eq!(g.adjoint().targets(), g.targets());
            assert_eq!(g.adjoint().controls(), g.controls());
        }
    }

    #[test]
    fn cnot_structure_matches_paper_convention() {
        // CNOT(0,1): control qubit 0, target qubit 1 (paper Sec. 2)
        let g = CNOT::new(0, 1);
        assert_eq!(g.controls(), vec![(0, 1)]);
        assert_eq!(g.targets(), vec![1]);
        assert_eq!(g.qubits(), vec![0, 1]);
        assert_eq!(g.name(), "CX");
    }

    #[test]
    fn mcx_paper_example_structure() {
        // paper Sec. 5.4: MCX([3,4], 2, [0,1])
        let g = MCX::new(&[3, 4], 2, &[0, 1]);
        assert_eq!(g.controls(), vec![(3, 0), (4, 1)]);
        assert_eq!(g.targets(), vec![2]);
        g.validate(5).unwrap();
    }

    #[test]
    fn controlled_flattening() {
        let g = PauliX::new(2).controlled(0, 1).controlled(1, 0);
        assert_eq!(g.controls(), vec![(0, 1), (1, 0)]);
        assert_eq!(g.targets(), vec![2]);
        g.validate(3).unwrap();
    }

    #[test]
    fn validate_rejects_bad_gates() {
        assert!(Hadamard::new(5).validate(3).is_err());
        assert!(CNOT::new(1, 1).validate(3).is_err());
        assert!(SwapGate::new(0, 0).validate(3).is_err());
        let bad = Gate::Controlled {
            controls: vec![0],
            control_states: vec![2],
            target: Box::new(Hadamard::new(1)),
        };
        assert!(bad.validate(3).is_err());
    }

    #[test]
    fn custom_gate_must_be_unitary() {
        let good = CustomGate::new("G", &[0], matrices::hadamard()).unwrap();
        good.validate(1).unwrap();
        assert!(CustomGate::new("B", &[0], CMat::zeros(2, 2)).is_err());
        // dimension mismatch: 1 qubit but 4x4 matrix
        assert!(CustomGate::new("B", &[0], CMat::identity(4)).is_err());
    }

    #[test]
    fn shifted_moves_all_qubits() {
        let g = MCX::new(&[0, 1], 2, &[1, 1]).shifted(3);
        assert_eq!(g.controls(), vec![(3, 1), (4, 1)]);
        assert_eq!(g.targets(), vec![5]);
    }

    #[test]
    fn relabeled_maps_all_qubits() {
        // map: 0->2, 1->0, 2->1
        let map = [2usize, 0, 1];
        let g = MCX::new(&[0, 1], 2, &[1, 0]).relabeled(&map);
        assert_eq!(g.controls(), vec![(2, 1), (0, 0)]);
        assert_eq!(g.targets(), vec![1]);
        let s = ISwapGate::new(0, 2).relabeled(&map);
        assert_eq!(s.targets(), vec![2, 1]);
        // identity map is a no-op for every gate shape
        let id = [0usize, 1, 2];
        for g in [
            Hadamard::new(1),
            RotationZZ::new(0, 2, 0.3),
            CustomGate::new("G", &[2, 0], matrices::swap()).unwrap(),
        ] {
            assert_eq!(g.relabeled(&id), g);
        }
    }

    #[test]
    fn names_for_display() {
        assert_eq!(CNOT::new(0, 1).name(), "CX");
        assert_eq!(CZ::new(0, 1).name(), "CZ");
        assert_eq!(Toffoli::new(0, 1, 2).name(), "CX");
        assert_eq!(Hadamard::new(0).name(), "H");
    }
}
