//! Sparse extended-unitary backend (the MATLAB QCLAB code path).
//!
//! Paper Sec. 3.2: QCLAB applies a gate `U'` by forming the sparse
//! register-wide unitary `U = I_l ⊗ U' ⊗ I_r` and multiplying it with the
//! state vector. This module reproduces that strategy exactly — for every
//! gate application a fresh [`CsrMat`] of `O(2^n)` stored entries is
//! built and applied. It is the reference backend the optimized kernels
//! of [`super::kernel`] were measured against (recorded in EXPERIMENTS.md
//! F1), and [`simulate`] — the whole branch tree on it — is the oracle
//! the dense engine is property-tested against on random circuits.

use super::guard::ResourceLimits;
use super::{walk_branches, BranchState, SimOptions, Simulation};
use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::gates::Gate;
use crate::program::PlanOptions;
use qclab_math::bits;
use qclab_math::scalar::{cr, C64};
use qclab_math::{CVec, CsrMat};

/// Builds the sparse `2^n x 2^n` unitary implementing `gate` on an
/// `n`-qubit register (controls included).
pub fn extended_unitary(gate: &Gate, n: usize) -> CsrMat {
    let dim = 1usize << n;
    let targets = gate.targets();
    let matrix = gate.target_matrix();
    let controls = gate.controls();
    let k = targets.len();
    let sub_dim = 1usize << k;

    let mut triplets: Vec<(usize, usize, C64)> = Vec::with_capacity(dim * sub_dim.min(4));

    'cols: for col in 0..dim {
        for &(q, s) in &controls {
            if bits::qubit_bit(col, q, n) != s as usize {
                // control not satisfied: identity column
                triplets.push((col, col, cr(1.0)));
                continue 'cols;
            }
        }
        let sub_col = bits::gather_bits(col, &targets, n);
        for sub_row in 0..sub_dim {
            let v = matrix[(sub_row, sub_col)];
            if v.norm() > 0.0 {
                let row = bits::scatter_bits(col, sub_row, &targets, n);
                triplets.push((row, col, v));
            }
        }
    }

    CsrMat::from_triplets(dim, dim, triplets)
}

/// Applies `gate` to `state` by building the extended sparse unitary and
/// multiplying — the MATLAB-style gate application.
pub fn apply_gate(gate: &Gate, state: &mut CVec, n: usize) {
    debug_assert_eq!(state.len(), 1usize << n);
    let u = extended_unitary(gate, n);
    let out = u.matvec(state);
    state.0 = out;
}

/// [`QCircuit::simulate_with`] on the Kronecker oracle: every gate —
/// measurement basis changes and reset corrections included — is the
/// register-wide unitary of [`apply_gate`], walked op by op over the
/// shared branch tree. It honours `opts.kernel.fuse` and
/// `max_fused_qubits` (a fused block is one more gate); the locality
/// pass is off, since index-bit locality buys a sparse product nothing.
pub fn simulate(
    circuit: &QCircuit,
    initial: &CVec,
    opts: &SimOptions,
) -> Result<Simulation, QclabError> {
    let n = circuit.nb_qubits();
    let plan = circuit.compile_with(&PlanOptions {
        remap: false,
        ..PlanOptions::from(&opts.kernel)
    });
    let mut sim = circuit
        .start(initial, &opts.limits)?
        .map_states(|s| Ok(Oracle(s)))?;
    let mut ticker = opts.control.ticker();
    walk_branches(
        &mut sim.branches,
        plan.ops(),
        &(),
        &opts.limits,
        n,
        &mut ticker,
    )?;
    sim.map_states(|s| Ok(s.0))
}

/// A dense branch state whose gates go through [`apply_gate`].
struct Oracle(CVec);

impl BranchState for Oracle {
    type Engine = ();

    fn apply(&mut self, gate: &Gate, n: usize, _: &()) {
        apply_gate(gate, &mut self.0, n);
    }

    fn permute(&mut self, _: &[usize], _: usize, _: &()) {
        unreachable!("the oracle lowers without the locality pass")
    }

    fn z_probabilities(&self, n: usize, q: usize, map: Option<&[usize]>) -> (f64, f64) {
        self.0.z_probabilities(n, q, map)
    }

    fn collapsed(&self, n: usize, q: usize, bit: usize, p: f64, map: Option<&[usize]>) -> Self {
        Oracle(self.0.collapsed(n, q, bit, p, map))
    }

    fn live(&self) -> u128 {
        0
    }

    fn admit(limits: &ResourceLimits, n: usize, kept: usize, live: u128) -> Result<(), QclabError> {
        CVec::admit(limits, n, kept, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn extended_hadamard_is_unitary() {
        let u = extended_unitary(&Hadamard::new(1), 3);
        assert!(u.to_dense().is_unitary(1e-12));
        assert_eq!(u.rows(), 8);
    }

    #[test]
    fn extended_unitary_matches_kron_for_middle_qubit() {
        // I ⊗ H ⊗ I on 3 qubits
        let u = extended_unitary(&Hadamard::new(1), 3).to_dense();
        let h = crate::gates::matrices::hadamard();
        let manual = h.embed(2, 2);
        assert!(u.approx_eq(&manual, 1e-15));
    }

    #[test]
    fn extended_cnot_nonadjacent() {
        // CNOT(0,2) on 3 qubits: |100> -> |101>, |101> -> |100>
        let u = extended_unitary(&CNOT::new(0, 2), 3).to_dense();
        assert!(u.is_unitary(1e-12));
        assert!((u[(5, 4)].re - 1.0).abs() < 1e-15);
        assert!((u[(4, 5)].re - 1.0).abs() < 1e-15);
        assert!((u[(0, 0)].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sparse_structure_is_compact() {
        // a 1-qubit dense gate stores at most 2 entries per column
        let u = extended_unitary(&Hadamard::new(4), 10);
        assert_eq!(u.nnz(), 2 * 1024);
        // a diagonal gate stores 1 entry per column
        let u = extended_unitary(&TGate::new(3), 10);
        assert_eq!(u.nnz(), 1024);
        // a controlled gate only expands satisfied-control columns
        let u = extended_unitary(&CNOT::new(0, 1), 10);
        assert_eq!(u.nnz(), 1024);
    }

    #[test]
    fn kron_backend_builds_bell_state() {
        let mut s = CVec::from_bitstring("00").unwrap();
        apply_gate(&Hadamard::new(0), &mut s, 2);
        apply_gate(&CNOT::new(0, 1), &mut s, 2);
        assert!((s[0].re - INV_SQRT2).abs() < 1e-15);
        assert!((s[3].re - INV_SQRT2).abs() < 1e-15);
    }

    #[test]
    fn backends_agree_on_gate_sample() {
        let n = 4;
        let gates = vec![
            Hadamard::new(0),
            PauliY::new(3),
            RotationX::new(1, 0.9),
            CNOT::new(2, 0),
            CZ::new(1, 3),
            SwapGate::new(0, 3),
            ISwapGate::new(1, 2),
            RotationZZ::new(0, 2, 0.5),
            MCX::new(&[0, 3], 1, &[1, 0]),
            CPhase::new(3, 0, 1.3),
        ];
        // a non-trivial starting state
        let mut a = CVec::basis_state(1 << n, 0);
        crate::sim::kernel::apply_gate(&Hadamard::new(0), &mut a, n);
        crate::sim::kernel::apply_gate(&RotationY::new(2, 0.4), &mut a, n);
        let mut b = a.clone();

        for g in &gates {
            crate::sim::kernel::apply_gate(g, &mut a, n);
            apply_gate(g, &mut b, n);
            assert!(a.approx_eq(&b, 1e-12), "backends diverge after {g}");
        }
    }
}
