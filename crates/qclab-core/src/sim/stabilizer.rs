//! Stabilizer (tableau) simulation of Clifford circuits.
//!
//! The paper's QEC footnote notes that practical error correction uses
//! "Clifford gates and classical control". This module provides the
//! matching simulation substrate: the Aaronson–Gottesman CHP tableau,
//! which simulates Clifford circuits (H, S, CNOT and everything they
//! generate) in polynomial time and memory — thousands of qubits instead
//! of the state vector's ~30. Rows are packed into `u64` words, so gate
//! updates stream over `2n·⌈2n/64⌉` bits.
//!
//! The tableau holds `2n` Pauli rows (destabilizers then stabilizers)
//! over the `x|z` bit representation plus a sign bit, exactly as in
//! Aaronson & Gottesman, *Improved simulation of stabilizer circuits*
//! (2004).
//!
//! The module holds the one **Clifford table**: `clifford` decomposes a
//! gate into at most three primitives (`Prim`: H, S, S†, X, Y, Z, CNOT)
//! or refuses it, and `basis_change` gives a Z/X/Y measurement's
//! `(V†, V)` in the same primitives. The tableau, the eligibility stat
//! ([`PlanStats::is_clifford`](crate::program::PlanStats::is_clifford))
//! and the Pauli-frame lowering ([`super::frame`], sign-free) all read
//! it. `walk` is the one tableau pass over a compiled program:
//! [`run_program`] (the one entry, under an [`ExecutionControl`]) and
//! the frame sampler's reference run differ only in what they record.
//!
//! ```
//! use qclab_core::StabilizerState;
//!
//! let mut s = StabilizerState::new(2).unwrap();
//! s.h(0);
//! s.cnot(0, 1);
//! assert_eq!(s.stabilizer_strings(), vec!["+XX", "+ZZ"]);
//!
//! // the Bell pair measures randomly but perfectly correlated
//! let mut rng = qclab_math::rng::Rng::seed_from_u64(1);
//! let first = s.measure(0, &mut rng);
//! let second = s.measure(1, &mut rng);
//! assert!(first.random && !second.random);
//! assert_eq!(first.bit, second.bit);
//! ```

use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::{Basis, Measurement};
use crate::program::{CompiledProgram, PlanOptions, ProgramOp};
use crate::sim::control::ExecutionControl;
use qclab_math::rng::Rng;

/// A Pauli row of the tableau: `x`/`z` bit vectors plus a sign.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    x: Vec<u64>,
    z: Vec<u64>,
    /// Sign bit: `true` means the row carries a −1 phase.
    r: bool,
}

impl Row {
    fn zero(words: usize) -> Self {
        Row {
            x: vec![0; words],
            z: vec![0; words],
            r: false,
        }
    }

    #[inline]
    fn get_x(&self, q: usize) -> bool {
        self.x[q >> 6] >> (q & 63) & 1 == 1
    }

    #[inline]
    fn get_z(&self, q: usize) -> bool {
        self.z[q >> 6] >> (q & 63) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, q: usize, v: bool) {
        let (w, b) = (q >> 6, q & 63);
        self.x[w] = (self.x[w] & !(1 << b)) | ((v as u64) << b);
    }

    #[inline]
    fn set_z(&mut self, q: usize, v: bool) {
        let (w, b) = (q >> 6, q & 63);
        self.z[w] = (self.z[w] & !(1 << b)) | ((v as u64) << b);
    }
}

/// The phase exponent contribution g(x1,z1,x2,z2) ∈ {−1, 0, 1} of
/// multiplying two single-qubit Paulis (Aaronson–Gottesman eq. for
/// `rowsum`).
#[inline]
fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => (z2 as i32) - (x2 as i32),
        (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
        (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
    }
}

/// A stabilizer state on `n` qubits, initialized to `|0…0⟩`.
#[derive(Clone, Debug)]
pub struct StabilizerState {
    n: usize,
    words: usize,
    /// Rows `0..n` are destabilizers, `n..2n` stabilizers.
    rows: Vec<Row>,
}

/// A stabilizer row's qubit-packed `x`/`z` bit-planes, as captured by
/// [`StabilizerState::measure_witness`] before a random-outcome
/// collapse.
pub type Witness = (Vec<u64>, Vec<u64>);

/// The outcome of a stabilizer measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureOutcome {
    /// The measured bit.
    pub bit: bool,
    /// `true` if the outcome was uniformly random (the qubit was in a
    /// superposition w.r.t. Z), `false` if it was determined.
    pub random: bool,
}

impl StabilizerState {
    /// Creates the all-zeros stabilizer state on `n` qubits. A
    /// zero-qubit tableau has no rows to hold and is refused as an
    /// error value, like every other backend entry point.
    pub fn new(n: usize) -> Result<Self, QclabError> {
        if n == 0 {
            return Err(QclabError::Unavailable(
                "stabilizer tableau requires at least one qubit".into(),
            ));
        }
        let words = n.div_ceil(64);
        let mut rows = vec![Row::zero(words); 2 * n];
        for q in 0..n {
            rows[q].set_x(q, true); // destabilizer X_q
            rows[n + q].set_z(q, true); // stabilizer Z_q
        }
        Ok(StabilizerState { n, words, rows })
    }

    /// Number of qubits.
    pub fn nb_qubits(&self) -> usize {
        self.n
    }

    /// Hadamard on `q`: swaps X and Z components.
    pub fn h(&mut self, q: usize) {
        for row in &mut self.rows {
            let x = row.get_x(q);
            let z = row.get_z(q);
            row.r ^= x & z;
            row.set_x(q, z);
            row.set_z(q, x);
        }
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        for row in &mut self.rows {
            let x = row.get_x(q);
            let z = row.get_z(q);
            row.r ^= x & z;
            row.set_z(q, x ^ z);
        }
    }

    /// S† on `q` (three S gates).
    pub fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// CNOT with control `c` and target `t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        assert_ne!(c, t);
        for row in &mut self.rows {
            let xc = row.get_x(c);
            let zc = row.get_z(c);
            let xt = row.get_x(t);
            let zt = row.get_z(t);
            row.r ^= xc & zt & (xt ^ zc ^ true);
            row.set_x(t, xt ^ xc);
            row.set_z(c, zc ^ zt);
        }
    }

    /// Pauli X on `q` (phase-only tableau update).
    pub fn x(&mut self, q: usize) {
        for row in &mut self.rows {
            row.r ^= row.get_z(q);
        }
    }

    /// Pauli Z on `q`.
    pub fn z(&mut self, q: usize) {
        for row in &mut self.rows {
            row.r ^= row.get_x(q);
        }
    }

    /// Pauli Y on `q`.
    pub fn y(&mut self, q: usize) {
        for row in &mut self.rows {
            row.r ^= row.get_x(q) ^ row.get_z(q);
        }
    }

    /// `rows[h] := rows[h] · rows[i]`, tracking the sign via the phase
    /// function `g`.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase: i32 = 2 * (self.rows[h].r as i32) + 2 * (self.rows[i].r as i32);
        for q in 0..self.n {
            phase += g(
                self.rows[i].get_x(q),
                self.rows[i].get_z(q),
                self.rows[h].get_x(q),
                self.rows[h].get_z(q),
            );
        }
        phase = phase.rem_euclid(4);
        debug_assert!(phase == 0 || phase == 2, "non-Hermitian row product");
        let (ix, iz) = (self.rows[i].x.clone(), self.rows[i].z.clone());
        let row_h = &mut self.rows[h];
        for w in 0..self.words {
            row_h.x[w] ^= ix[w];
            row_h.z[w] ^= iz[w];
        }
        row_h.r = phase == 2;
    }

    /// Measures qubit `q` in the Z basis, consuming randomness from `rng`
    /// when the outcome is not determined.
    pub fn measure(&mut self, q: usize, rng: &mut Rng) -> MeasureOutcome {
        self.measure_witness(q, rng).0
    }

    /// Measures qubit `q` in the Z basis like
    /// [`measure`](Self::measure), additionally returning the *witness*
    /// of a random outcome: the anticommuting stabilizer row's `x`/`z`
    /// bit-planes (qubit-packed), captured before the collapse. The
    /// witness maps one measurement branch onto the other — the
    /// Pauli-frame sampler records it during its reference run, and
    /// multiplying a shot's frame by the witness moves that shot onto
    /// the opposite branch consistently (its sign is irrelevant: `±P`
    /// act identically on a frame).
    pub fn measure_witness(
        &mut self,
        q: usize,
        rng: &mut Rng,
    ) -> (MeasureOutcome, Option<Witness>) {
        match self.find_random_stabilizer(q) {
            Some(p) => {
                let witness = (self.rows[p].x.clone(), self.rows[p].z.clone());
                let bit = rng.bool();
                self.collapse(q, p, bit);
                (MeasureOutcome { bit, random: true }, Some(witness))
            }
            None => (
                MeasureOutcome {
                    bit: self.deterministic_outcome(q),
                    random: false,
                },
                None,
            ),
        }
    }

    /// Measures qubit `q`, forcing the outcome to `bit` when it is
    /// random (used to follow a specific branch of a statevector
    /// simulation). Returns whether the outcome was random.
    pub fn measure_forced(&mut self, q: usize, bit: bool) -> Result<MeasureOutcome, QclabError> {
        match self.find_random_stabilizer(q) {
            Some(p) => {
                self.collapse(q, p, bit);
                Ok(MeasureOutcome { bit, random: true })
            }
            None => {
                let det = self.deterministic_outcome(q);
                if det != bit {
                    return Err(QclabError::Unavailable(format!(
                        "outcome {} on qubit {q} has probability 0",
                        bit as u8
                    )));
                }
                Ok(MeasureOutcome { bit, random: false })
            }
        }
    }

    /// A stabilizer row (index in `n..2n`) anticommuting with `Z_q`, if
    /// any — its existence means the measurement outcome is random.
    fn find_random_stabilizer(&self, q: usize) -> Option<usize> {
        (self.n..2 * self.n).find(|&p| self.rows[p].get_x(q))
    }

    fn collapse(&mut self, q: usize, p: usize, bit: bool) {
        // every other row with x_q = 1 absorbs row p; the destabilizer
        // partner p - n is skipped — it anticommutes with row p (an
        // anti-Hermitian product) and is overwritten below anyway
        for i in 0..2 * self.n {
            if i != p && i != p - self.n && self.rows[i].get_x(q) {
                self.rowsum(i, p);
            }
        }
        // row p becomes the new stabilizer ±Z_q; its old value moves to
        // the destabilizer slot
        self.rows[p - self.n] = self.rows[p].clone();
        let mut new_row = Row::zero(self.words);
        new_row.set_z(q, true);
        new_row.r = bit;
        self.rows[p] = new_row;
    }

    fn deterministic_outcome(&mut self, q: usize) -> bool {
        // scratch row: product of stabilizers whose destabilizer partner
        // anticommutes with Z_q
        let scratch_idx = self.rows.len();
        self.rows.push(Row::zero(self.words));
        for i in 0..self.n {
            if self.rows[i].get_x(q) {
                self.rowsum(scratch_idx, self.n + i);
            }
        }
        let r = self.rows[scratch_idx].r;
        self.rows.pop();
        r
    }

    /// Applies one primitive of the Clifford table.
    fn apply(&mut self, prim: Prim) {
        match prim {
            Prim::H(q) => self.h(q),
            Prim::S(q) => self.s(q),
            Prim::Sdg(q) => self.sdg(q),
            Prim::X(q) => self.x(q),
            Prim::Y(q) => self.y(q),
            Prim::Z(q) => self.z(q),
            Prim::Cnot(c, t) => self.cnot(c, t),
        }
    }

    fn apply_all(&mut self, prims: &[Prim]) {
        for &prim in prims {
            self.apply(prim);
        }
    }

    /// Applies a circuit gate through the Clifford table (`clifford`);
    /// errors on non-Clifford gates.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<(), QclabError> {
        let prims = clifford(gate).ok_or_else(|| {
            QclabError::Unavailable(format!(
                "gate {} is not Clifford (stabilizer backend)",
                gate.name()
            ))
        })?;
        self.apply_all(&prims);
        Ok(())
    }

    /// Measures a qubit in the measurement's basis by rotating it into
    /// the computational basis (`V†`), Z-measuring, and rotating back
    /// (`V`) — mirroring the state-vector backends' basis handling. The
    /// rotations are the table's `basis_change`; a custom basis is not
    /// representable on the tableau.
    pub fn measure_in_basis(
        &mut self,
        m: &Measurement,
        rng: &mut Rng,
    ) -> Result<MeasureOutcome, QclabError> {
        Ok(self.measure_in_basis_witness(m, rng)?.0)
    }

    /// [`measure_in_basis`](Self::measure_in_basis) with the witness of
    /// a random outcome ([`measure_witness`](Self::measure_witness)),
    /// captured in the rotated picture, between `V†` and `V`.
    fn measure_in_basis_witness(
        &mut self,
        m: &Measurement,
        rng: &mut Rng,
    ) -> Result<(MeasureOutcome, Option<Witness>), QclabError> {
        let q = m.qubit();
        let (vdg, v) = basis_change(m.basis(), q).ok_or_else(|| {
            QclabError::Unavailable(format!(
                "custom measurement basis {} is not Clifford (stabilizer backend)",
                m.basis().label()
            ))
        })?;
        self.apply_all(&vdg);
        let out = self.measure_witness(q, rng);
        self.apply_all(&v);
        Ok(out)
    }

    /// The stabilizer generators as strings like `+XZI` (sign, then one
    /// Pauli letter per qubit) — for inspection and tests.
    pub fn stabilizer_strings(&self) -> Vec<String> {
        (self.n..2 * self.n)
            .map(|i| {
                let row = &self.rows[i];
                let mut s = String::with_capacity(self.n + 1);
                s.push(if row.r { '-' } else { '+' });
                for q in 0..self.n {
                    s.push(match (row.get_x(q), row.get_z(q)) {
                        (false, false) => 'I',
                        (true, false) => 'X',
                        (false, true) => 'Z',
                        (true, true) => 'Y',
                    });
                }
                s
            })
            .collect()
    }
}

/// A primitive of the Clifford table: one tableau generator on given
/// qubits.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Prim {
    H(usize),
    S(usize),
    Sdg(usize),
    X(usize),
    Y(usize),
    Z(usize),
    /// Control, target.
    Cnot(usize, usize),
}

/// A short primitive sequence in application order, held inline: at
/// most three primitives, so classifying a gate — which every lowering
/// does ([`PlanStats::is_clifford`](crate::program::PlanStats::is_clifford))
/// — never allocates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Prims {
    seq: [Prim; 3],
    len: u8,
}

impl Prims {
    fn of(prims: &[Prim]) -> Prims {
        // the padding is never read
        let mut seq = [Prim::X(0); 3];
        seq[..prims.len()].copy_from_slice(prims);
        Prims {
            seq,
            len: prims.len() as u8,
        }
    }
}

impl std::ops::Deref for Prims {
    type Target = [Prim];

    fn deref(&self) -> &[Prim] {
        &self.seq[..self.len as usize]
    }
}

/// The Clifford table: `gate` as tableau primitives, or `None` outside
/// the family the tableau — and the Pauli-frame sampler built on it —
/// executes exactly: H, S, S†, the Paulis, Swap and the singly-controlled
/// Paulis (CX, CY, CZ). The identity is the empty sequence.
pub(crate) fn clifford(gate: &Gate) -> Option<Prims> {
    use Prim::*;
    Some(match gate {
        Gate::Identity(_) => Prims::of(&[]),
        Gate::Hadamard(q) => Prims::of(&[H(*q)]),
        Gate::S(q) => Prims::of(&[S(*q)]),
        Gate::Sdg(q) => Prims::of(&[Sdg(*q)]),
        Gate::PauliX(q) => Prims::of(&[X(*q)]),
        Gate::PauliY(q) => Prims::of(&[Y(*q)]),
        Gate::PauliZ(q) => Prims::of(&[Z(*q)]),
        Gate::Swap(a, b) => Prims::of(&[Cnot(*a, *b), Cnot(*b, *a), Cnot(*a, *b)]),
        Gate::Controlled {
            controls,
            control_states,
            target,
        } if controls.len() == 1 && control_states[0] == 1 => {
            let c = controls[0];
            match **target {
                Gate::PauliX(t) => Prims::of(&[Cnot(c, t)]),
                // CZ = H(t) CX H(t)
                Gate::PauliZ(t) => Prims::of(&[H(t), Cnot(c, t), H(t)]),
                // CY = S(t) CX S†(t): S† acts first
                Gate::PauliY(t) => Prims::of(&[Sdg(t), Cnot(c, t), S(t)]),
                _ => return None,
            }
        }
        _ => return None,
    })
}

/// The basis change of a measurement of qubit `q` as table primitives:
/// `(V†, V)`, applied before and after its Z measurement. `V` is
/// [`Basis::change_matrix`] up to phase: the identity for Z, `H` for X,
/// `S·H` for Y (so `V† = H·S†`: S† acts first). `None` for a custom
/// basis, which has no tableau form.
pub(crate) fn basis_change(basis: &Basis, q: usize) -> Option<(Prims, Prims)> {
    use Prim::*;
    Some(match basis {
        Basis::Z => (Prims::of(&[]), Prims::of(&[])),
        Basis::X => (Prims::of(&[H(q)]), Prims::of(&[H(q)])),
        Basis::Y => (Prims::of(&[Sdg(q), H(q)]), Prims::of(&[H(q), S(q)])),
        Basis::Custom { .. } => return None,
    })
}

/// Whether the tableau — and the Pauli-frame sampler built on top of
/// it — can execute `gate` exactly: whether the Clifford table
/// (`clifford`) decomposes it.
pub fn is_clifford_gate(gate: &Gate) -> bool {
    clifford(gate).is_some()
}

/// One measurement or reset site of a [`walk`]: its outcome bit, and
/// the witness when the outcome was random
/// ([`StabilizerState::measure_witness`]).
pub(crate) struct Site {
    /// `true` for a measurement, `false` for a reset.
    pub recorded: bool,
    pub bit: bool,
    pub witness: Option<Witness>,
}

/// The tableau walk over a compiled program, from `|0…0⟩`: gates go
/// through the Clifford table, measurements are taken in their basis,
/// resets measure and flip a 1 back to `|0⟩`, fences do nothing, and a
/// permute is refused — the tableau has no amplitude layout to relabel,
/// so Clifford programs are lowered
/// [`unfused`](crate::program::PlanOptions::unfused). One control tick
/// per op; the ticks never draw from `rng`. Each measurement and reset
/// is handed to `site`. Returns the final tableau.
pub(crate) fn walk(
    program: &CompiledProgram,
    rng: &mut Rng,
    control: &ExecutionControl,
    mut site: impl FnMut(Site),
) -> Result<StabilizerState, QclabError> {
    let mut state = StabilizerState::new(program.nb_qubits())?;
    let mut ticker = control.ticker();
    for op in program.ops() {
        match op {
            ProgramOp::Gate(g) => state.apply_gate(g)?,
            ProgramOp::Fence(_) => {}
            ProgramOp::Measure(m) => {
                let (out, witness) = state.measure_in_basis_witness(m, rng)?;
                site(Site {
                    recorded: true,
                    bit: out.bit,
                    witness,
                });
            }
            ProgramOp::Reset(q) => {
                let (out, witness) = state.measure_witness(*q, rng);
                if out.bit {
                    state.x(*q);
                }
                site(Site {
                    recorded: false,
                    bit: out.bit,
                    witness,
                });
            }
            ProgramOp::Permute { .. } => {
                return Err(QclabError::Unavailable(
                    "stabilizer backend cannot execute a relabeled plan — \
                     lower with PlanOptions::unfused()"
                        .into(),
                ))
            }
        }
        ticker.tick()?;
    }
    Ok(state)
}

/// The outcome of running a circuit on the stabilizer backend.
#[derive(Clone, Debug)]
pub struct StabilizerRun {
    /// Final tableau.
    pub state: StabilizerState,
    /// Concatenated measurement outcomes, in execution order — the same
    /// record format as the state-vector and trajectory backends.
    pub record: String,
}

/// Executes a lowered program on a fresh tableau: gates must be
/// Clifford, measurements sample through `rng`, resets force `|0⟩`,
/// fences are no-ops. This is the stabilizer backend's executor over the
/// shared [`CompiledProgram`] IR: the tableau `walk`, recording each
/// measurement bit. It polls `control` at op boundaries, so long tableau
/// runs stop cooperatively; the checks never draw from `rng`, so a run
/// that completes under a generous deadline is bit-identical to one
/// under [`ExecutionControl::none`].
pub fn run_program(
    program: &CompiledProgram,
    rng: &mut Rng,
    control: &ExecutionControl,
) -> Result<StabilizerRun, QclabError> {
    let mut record = String::new();
    let state = walk(program, rng, control, |site| {
        if site.recorded {
            record.push(if site.bit { '1' } else { '0' });
        }
    })?;
    Ok(StabilizerRun { state, record })
}

/// Runs a circuit on the stabilizer backend from `|0…0⟩`. The circuit is
/// lowered **unfused** — fused blocks are dense `Custom` unitaries the
/// tableau cannot absorb even when every constituent gate is Clifford.
pub fn run_stabilizer(
    circuit: &crate::circuit::QCircuit,
    rng: &mut Rng,
) -> Result<StabilizerRun, QclabError> {
    let program = crate::program::compile(circuit, &PlanOptions::unfused());
    run_program(&program, rng, &ExecutionControl::none())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_stabilized_by_z() {
        let s = StabilizerState::new(3).unwrap();
        assert_eq!(s.stabilizer_strings(), vec!["+ZII", "+IZI", "+IIZ"]);
    }

    #[test]
    fn zero_qubit_tableau_is_refused_not_a_panic() {
        // every backend entry point reports an empty register as a
        // proper error; the tableau is no exception
        match StabilizerState::new(0) {
            Err(QclabError::Unavailable(msg)) => assert!(msg.contains("at least one qubit")),
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn hadamard_turns_z_into_x() {
        let mut s = StabilizerState::new(2).unwrap();
        s.h(0);
        assert_eq!(
            s.stabilizer_strings(),
            vec!["+XII".replace("II", "I"), "+IZ".into()]
        );
    }

    #[test]
    fn bell_state_stabilizers() {
        let mut s = StabilizerState::new(2).unwrap();
        s.h(0);
        s.cnot(0, 1);
        let stabs = s.stabilizer_strings();
        assert_eq!(stabs, vec!["+XX", "+ZZ"]);
    }

    #[test]
    fn pauli_gates_flip_signs() {
        let mut s = StabilizerState::new(1).unwrap();
        s.x(0);
        assert_eq!(s.stabilizer_strings(), vec!["-Z"]);
        s.x(0);
        assert_eq!(s.stabilizer_strings(), vec!["+Z"]);
    }

    #[test]
    fn s_gate_squares_to_z() {
        let mut a = StabilizerState::new(1).unwrap();
        a.h(0); // stabilizer +X
        a.s(0);
        a.s(0);
        let mut b = StabilizerState::new(1).unwrap();
        b.h(0);
        b.z(0);
        assert_eq!(a.stabilizer_strings(), b.stabilizer_strings());
    }

    #[test]
    fn deterministic_measurement_of_basis_state() {
        let mut s = StabilizerState::new(2).unwrap();
        s.x(0);
        let mut rng = Rng::seed_from_u64(1);
        let m0 = s.measure(0, &mut rng);
        assert!(!m0.random);
        assert!(m0.bit);
        let m1 = s.measure(1, &mut rng);
        assert!(!m1.random);
        assert!(!m1.bit);
    }

    #[test]
    fn plus_state_measurement_is_random_then_fixed() {
        let mut s = StabilizerState::new(1).unwrap();
        s.h(0);
        let mut rng = Rng::seed_from_u64(7);
        let first = s.measure(0, &mut rng);
        assert!(first.random);
        // repeated measurement is now deterministic and equal
        let second = s.measure(0, &mut rng);
        assert!(!second.random);
        assert_eq!(second.bit, first.bit);
    }

    #[test]
    fn ghz_measurements_are_perfectly_correlated() {
        for seed in 0..20u64 {
            let n = 8;
            let mut s = StabilizerState::new(n).unwrap();
            s.h(0);
            for q in 1..n {
                s.cnot(q - 1, q);
            }
            let mut rng = Rng::seed_from_u64(seed);
            let first = s.measure(0, &mut rng);
            assert!(first.random);
            for q in 1..n {
                let m = s.measure(q, &mut rng);
                assert!(!m.random, "later GHZ measurement must be determined");
                assert_eq!(m.bit, first.bit);
            }
        }
    }

    #[test]
    fn forced_measurement_rejects_impossible_outcomes() {
        let mut s = StabilizerState::new(1).unwrap();
        s.x(0); // |1>
        assert!(s.measure_forced(0, false).is_err());
        assert!(s.measure_forced(0, true).is_ok());
    }

    #[test]
    fn apply_gate_accepts_cliffords_and_rejects_t() {
        let mut s = StabilizerState::new(3).unwrap();
        use crate::gates::factories::*;
        for g in [
            Hadamard::new(0),
            SGate::new(1),
            SdgGate::new(2),
            PauliX::new(0),
            PauliY::new(1),
            PauliZ::new(2),
            CNOT::new(0, 1),
            CZ::new(1, 2),
            CY::new(0, 2),
            SwapGate::new(0, 2),
        ] {
            s.apply_gate(&g).unwrap();
        }
        assert!(s.apply_gate(&TGate::new(0)).is_err());
        assert!(s.apply_gate(&RotationX::new(0, 0.5)).is_err());
        assert!(s.apply_gate(&Toffoli::new(0, 1, 2)).is_err());
    }

    #[test]
    fn swap_moves_excitation() {
        let mut s = StabilizerState::new(2).unwrap();
        s.x(0);
        use crate::gates::factories::SwapGate;
        s.apply_gate(&SwapGate::new(0, 1)).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        assert!(!s.measure(0, &mut rng).bit);
        assert!(s.measure(1, &mut rng).bit);
    }

    #[test]
    fn large_register_is_cheap() {
        // 2048 qubits: far beyond any state vector; must stay fast
        let n = 2048;
        let mut s = StabilizerState::new(n).unwrap();
        s.h(0);
        for q in 1..n {
            s.cnot(q - 1, q);
        }
        let mut rng = Rng::seed_from_u64(3);
        let first = s.measure(0, &mut rng);
        let last = s.measure(n - 1, &mut rng);
        assert_eq!(first.bit, last.bit);
    }

    #[test]
    fn x_and_y_basis_measurements_are_deterministic_on_eigenstates() {
        use crate::gates::factories::{Hadamard, SGate};
        let mut rng = Rng::seed_from_u64(5);

        // H|0> = |+>: X-basis measurement reads 0 deterministically
        let mut s = StabilizerState::new(1).unwrap();
        s.h(0);
        let out = s.measure_in_basis(&Measurement::x(0), &mut rng).unwrap();
        assert!(!out.bit);
        assert!(!out.random);
        // the rotate-back leaves the state an X eigenstate
        assert_eq!(s.stabilizer_strings(), vec!["+X"]);

        // S·H|0> = |+i>: Y-basis measurement reads 0 deterministically
        let mut s = StabilizerState::new(1).unwrap();
        s.apply_gate(&Hadamard::new(0)).unwrap();
        s.apply_gate(&SGate::new(0)).unwrap();
        let out = s.measure_in_basis(&Measurement::y(0), &mut rng).unwrap();
        assert!(!out.bit);
        assert!(!out.random);
        assert_eq!(s.stabilizer_strings(), vec!["+Y"]);

        // |0> in the Y basis is uniformly random
        let mut s = StabilizerState::new(1).unwrap();
        let out = s.measure_in_basis(&Measurement::y(0), &mut rng).unwrap();
        assert!(out.random);

        // custom bases are rejected, not silently mis-measured
        let mut s = StabilizerState::new(1).unwrap();
        let custom = Measurement::in_basis(0, "w", Basis::X.change_matrix()).unwrap();
        assert!(matches!(
            s.measure_in_basis(&custom, &mut rng),
            Err(QclabError::Unavailable(_))
        ));
    }

    #[test]
    fn run_stabilizer_executes_subcircuits_fences_and_resets() {
        use crate::circuit::{CircuitItem, QCircuit};
        use crate::gates::factories::{Hadamard, CNOT};
        use crate::measurement::Measurement;

        // GHZ prep inside a sub-circuit, a barrier, then measure + reset
        let mut sub = QCircuit::new(2);
        sub.push_back(Hadamard::new(0));
        sub.push_back(CNOT::new(0, 1));
        let mut c = QCircuit::new(3);
        c.push_back_at(1, sub).unwrap();
        c.push_back(CircuitItem::Barrier(vec![1, 2]));
        c.push_back(Measurement::z(1));
        c.push_back(Measurement::z(2));
        c.push_back(CircuitItem::Reset(1));
        c.push_back(Measurement::z(1));

        for seed in 0..8 {
            let mut rng = Rng::seed_from_u64(seed);
            let run = run_stabilizer(&c, &mut rng).unwrap();
            let bits: Vec<char> = run.record.chars().collect();
            assert_eq!(bits.len(), 3);
            // Bell pair: perfectly correlated; reset: always reads 0
            assert_eq!(bits[0], bits[1]);
            assert_eq!(bits[2], '0');
        }

        // non-Clifford circuits are rejected by the same runner
        let mut bad = QCircuit::new(1);
        bad.push_back(crate::gates::factories::TGate::new(0));
        let mut rng = Rng::seed_from_u64(0);
        assert!(run_stabilizer(&bad, &mut rng).is_err());
    }
}
