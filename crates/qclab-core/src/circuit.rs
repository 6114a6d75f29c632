//! The [`QCircuit`] type: an ordered container of gates, measurements,
//! resets and nested sub-circuits (paper Sec. 2).
//!
//! Items are appended with [`QCircuit::push_back`], mirroring QCLAB's
//! `circuit.push_back(...)`. Sub-circuits are first-class items — the
//! Grover example of the paper builds `oracle` and `diffuser` circuits and
//! pushes them into the main circuit; [`QCircuit::as_block`] controls
//! whether renderers draw them as opaque boxes.

use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::Measurement;
use qclab_math::CMat;
use std::sync::OnceLock;

/// One entry of a quantum circuit.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitItem {
    /// A unitary gate.
    Gate(Gate),
    /// A single-qubit measurement.
    Measurement(Measurement),
    /// Reset of a qubit to `|0>` (measure in Z; flip on outcome 1).
    Reset(usize),
    /// A rendering/no-op barrier across the given qubits.
    Barrier(Vec<usize>),
    /// A nested sub-circuit placed at a qubit offset in this register.
    SubCircuit { offset: usize, circuit: QCircuit },
}

impl From<Gate> for CircuitItem {
    fn from(g: Gate) -> Self {
        CircuitItem::Gate(g)
    }
}

impl From<Measurement> for CircuitItem {
    fn from(m: Measurement) -> Self {
        CircuitItem::Measurement(m)
    }
}

impl From<QCircuit> for CircuitItem {
    fn from(c: QCircuit) -> Self {
        CircuitItem::SubCircuit {
            offset: 0,
            circuit: c,
        }
    }
}

impl CircuitItem {
    /// All qubits the item touches (relative to the containing circuit).
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            CircuitItem::Gate(g) => g.qubits(),
            CircuitItem::Measurement(m) => vec![m.qubit()],
            CircuitItem::Reset(q) => vec![*q],
            CircuitItem::Barrier(qs) => qs.clone(),
            CircuitItem::SubCircuit { offset, circuit } => {
                (*offset..offset + circuit.nb_qubits()).collect()
            }
        }
    }

    /// Validates the item against a register of `nb_qubits`.
    pub fn validate(&self, nb_qubits: usize) -> Result<(), QclabError> {
        match self {
            CircuitItem::Gate(g) => g.validate(nb_qubits),
            CircuitItem::Measurement(m) => m.validate(nb_qubits),
            CircuitItem::Reset(q) => {
                if *q >= nb_qubits {
                    Err(QclabError::QubitOutOfRange {
                        qubit: *q,
                        nb_qubits,
                    })
                } else {
                    Ok(())
                }
            }
            CircuitItem::Barrier(qs) => {
                for &q in qs {
                    if q >= nb_qubits {
                        return Err(QclabError::QubitOutOfRange {
                            qubit: q,
                            nb_qubits,
                        });
                    }
                }
                Ok(())
            }
            CircuitItem::SubCircuit { offset, circuit } => {
                if offset + circuit.nb_qubits() > nb_qubits {
                    return Err(QclabError::SubCircuitOutOfRange {
                        offset: *offset,
                        sub_qubits: circuit.nb_qubits(),
                        nb_qubits,
                    });
                }
                // items of the sub-circuit were validated when pushed
                Ok(())
            }
        }
    }
}

/// The memoised [`QCircuit::fingerprint`]: derived from the fields
/// beside it, so it compares equal to anything and a clone carries it.
/// Every `&mut self` mutator of the circuit empties it.
#[derive(Clone, Debug, Default)]
struct FingerprintMemo(OnceLock<u64>);

impl PartialEq for FingerprintMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A quantum circuit on a fixed-size qubit register.
#[derive(Clone, Debug, PartialEq)]
pub struct QCircuit {
    nb_qubits: usize,
    items: Vec<CircuitItem>,
    name: Option<String>,
    draw_as_block: bool,
    fingerprint: FingerprintMemo,
}

impl QCircuit {
    /// Creates an empty circuit on `nb_qubits` qubits
    /// (`qclab.QCircuit(n)`).
    pub fn new(nb_qubits: usize) -> Self {
        assert!(nb_qubits > 0, "QCircuit requires at least one qubit");
        QCircuit {
            nb_qubits,
            items: Vec::new(),
            name: None,
            draw_as_block: false,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Number of qubits in the register.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// The circuit's items in order.
    pub fn items(&self) -> &[CircuitItem] {
        &self.items
    }

    /// Number of items (gates, measurements, resets, barriers, blocks).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the circuit has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends an item; panics if the item does not fit the register.
    /// Returns `&mut self` so pushes can be chained.
    pub fn push_back(&mut self, item: impl Into<CircuitItem>) -> &mut Self {
        self.try_push_back(item).expect("invalid circuit item");
        self
    }

    /// Appends an item, reporting failures instead of panicking.
    pub fn try_push_back(&mut self, item: impl Into<CircuitItem>) -> Result<&mut Self, QclabError> {
        let item = item.into();
        item.validate(self.nb_qubits)?;
        self.fingerprint = FingerprintMemo::default();
        self.items.push(item);
        Ok(self)
    }

    /// Reserves room for at least `additional` more items.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
    }

    /// Appends a sub-circuit starting at qubit `offset` of this register.
    pub fn push_back_at(
        &mut self,
        offset: usize,
        circuit: QCircuit,
    ) -> Result<&mut Self, QclabError> {
        self.try_push_back(CircuitItem::SubCircuit { offset, circuit })
    }

    /// Inserts an item at position `index`.
    pub fn insert(&mut self, index: usize, item: impl Into<CircuitItem>) -> Result<(), QclabError> {
        let item = item.into();
        item.validate(self.nb_qubits)?;
        assert!(index <= self.items.len(), "insert index out of range");
        self.fingerprint = FingerprintMemo::default();
        self.items.insert(index, item);
        Ok(())
    }

    /// Removes and returns the item at `index`.
    pub fn erase(&mut self, index: usize) -> CircuitItem {
        self.fingerprint = FingerprintMemo::default();
        self.items.remove(index)
    }

    /// Clears all items.
    pub fn clear(&mut self) {
        self.fingerprint = FingerprintMemo::default();
        self.items.clear();
    }

    /// Sets a display name (used when drawn as a block).
    pub fn set_name(&mut self, name: &str) -> &mut Self {
        self.name = Some(name.to_string());
        self
    }

    /// The display name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Marks the circuit to be drawn as an opaque named box
    /// (`circuit.asBlock` in QCLAB). Consumes nothing; toggles a flag.
    pub fn as_block(&mut self, name: &str) -> &mut Self {
        self.fingerprint = FingerprintMemo::default();
        self.draw_as_block = true;
        self.name = Some(name.to_string());
        self
    }

    /// Reverts [`as_block`](Self::as_block) (`circuit.unBlock`).
    pub fn un_block(&mut self) -> &mut Self {
        self.fingerprint = FingerprintMemo::default();
        self.draw_as_block = false;
        self
    }

    /// `true` if renderers should draw this circuit as a box.
    pub fn draws_as_block(&self) -> bool {
        self.draw_as_block
    }

    /// `true` if the circuit (recursively) contains no measurements or
    /// resets, i.e. it implements a unitary.
    pub fn is_unitary_circuit(&self) -> bool {
        self.items.iter().all(|item| match item {
            CircuitItem::Gate(_) | CircuitItem::Barrier(_) => true,
            CircuitItem::Measurement(_) | CircuitItem::Reset(_) => false,
            CircuitItem::SubCircuit { circuit, .. } => circuit.is_unitary_circuit(),
        })
    }

    /// Total number of gates, descending into sub-circuits.
    pub fn nb_gates(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                CircuitItem::Gate(_) => 1,
                CircuitItem::SubCircuit { circuit, .. } => circuit.nb_gates(),
                _ => 0,
            })
            .sum()
    }

    /// Total number of measurements, descending into sub-circuits.
    pub fn nb_measurements(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                CircuitItem::Measurement(_) => 1,
                CircuitItem::SubCircuit { circuit, .. } => circuit.nb_measurements(),
                _ => 0,
            })
            .sum()
    }

    /// Circuit depth: the number of layers when items are packed greedily
    /// to the left, each item occupying the full span of qubits between
    /// its lowest and highest wire (barriers and blocks count as one
    /// column over their span).
    #[allow(clippy::needless_range_loop)] // `level[lo..=hi]` reads clearer
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nb_qubits];
        for item in &self.items {
            let qs = item.qubits();
            if qs.is_empty() {
                continue;
            }
            let lo = *qs.iter().min().unwrap();
            let hi = *qs.iter().max().unwrap();
            let col = (lo..=hi).map(|q| level[q]).max().unwrap() + 1;
            for q in lo..=hi {
                level[q] = col;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// The adjoint (inverse) circuit: items reversed and each gate
    /// replaced by its adjoint. Fails if the circuit contains
    /// measurements or resets.
    pub fn adjoint(&self) -> Result<QCircuit, QclabError> {
        if !self.is_unitary_circuit() {
            return Err(QclabError::NonUnitaryCircuit("adjoint".into()));
        }
        let mut out = QCircuit::new(self.nb_qubits);
        out.name = self.name.as_ref().map(|n| format!("{n}†"));
        out.draw_as_block = self.draw_as_block;
        for item in self.items.iter().rev() {
            let adj = match item {
                CircuitItem::Gate(g) => CircuitItem::Gate(g.adjoint()),
                CircuitItem::Barrier(qs) => CircuitItem::Barrier(qs.clone()),
                CircuitItem::SubCircuit { offset, circuit } => CircuitItem::SubCircuit {
                    offset: *offset,
                    circuit: circuit.adjoint()?,
                },
                CircuitItem::Measurement(_) | CircuitItem::Reset(_) => unreachable!(),
            };
            out.items.push(adj);
        }
        Ok(out)
    }

    /// The full `2^n x 2^n` unitary implemented by the circuit, obtained
    /// by applying the circuit to every computational basis state. Fails
    /// if the circuit contains measurements or resets.
    pub fn to_matrix(&self) -> Result<CMat, QclabError> {
        if !self.is_unitary_circuit() {
            return Err(QclabError::NonUnitaryCircuit("to_matrix".into()));
        }
        let dim = crate::sim::guard::ResourceLimits::default().check_matrix(self.nb_qubits)?;
        // lower unfused so the matrix reflects the original gate list —
        // the fusion tests use `to_matrix` as their semantic oracle
        let program = self.compile_with(&crate::program::PlanOptions::unfused());
        let mut out = CMat::zeros(dim, dim);
        for j in 0..dim {
            let mut col = qclab_math::CVec::basis_state(dim, j);
            program.apply_unitary(&mut col)?;
            for i in 0..dim {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Structural content hash of the circuit: register size plus the
    /// flattened item stream (gate targets/controls/parameter bits,
    /// measurement bases, resets, barriers). Equal circuits hash equal;
    /// a nested sub-circuit hashes like its manual inlining. This is the
    /// plan-cache key — see [`crate::program`]. Hashed on first use and
    /// remembered until the circuit is next mutated, so a job that is
    /// admitted, keyed and looked up pays for one hash.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .0
            .get_or_init(|| crate::program::fingerprint(self))
    }

    /// Lowers the circuit to a [`CompiledProgram`](crate::program::CompiledProgram)
    /// through the global plan cache, with default [`crate::program::PlanOptions`].
    pub fn compile(&self) -> std::sync::Arc<crate::program::CompiledProgram> {
        crate::program::compile(self, &crate::program::PlanOptions::default())
    }

    /// Lowers the circuit with explicit plan options (cached).
    pub fn compile_with(
        &self,
        options: &crate::program::PlanOptions,
    ) -> std::sync::Arc<crate::program::CompiledProgram> {
        crate::program::compile(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;

    fn bell_circuit() -> QCircuit {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c
    }

    #[test]
    fn push_back_validates() {
        let mut c = QCircuit::new(2);
        assert!(c.try_push_back(Hadamard::new(0)).is_ok());
        assert!(c.try_push_back(Hadamard::new(2)).is_err());
        assert!(c.try_push_back(Measurement::z(5)).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid circuit item")]
    fn push_back_panics_on_invalid() {
        QCircuit::new(1).push_back(CNOT::new(0, 1));
    }

    #[test]
    fn counting_and_depth() {
        let mut c = bell_circuit();
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        assert_eq!(c.nb_gates(), 2);
        assert_eq!(c.nb_measurements(), 2);
        // H | CNOT | M M  -> depth 3 (both measurements fit in column 3)
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn depth_packs_parallel_gates() {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(Hadamard::new(1));
        c.push_back(Hadamard::new(2));
        assert_eq!(c.depth(), 1);
        c.push_back(CNOT::new(0, 2)); // spans all three wires
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn insert_and_erase() {
        let mut c = bell_circuit();
        c.insert(1, PauliX::new(1)).unwrap();
        assert_eq!(c.len(), 3);
        match c.erase(1) {
            CircuitItem::Gate(g) => assert_eq!(g, PauliX::new(1)),
            other => panic!("unexpected item {other:?}"),
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn subcircuit_push_and_offset_validation() {
        let sub = bell_circuit();
        let mut big = QCircuit::new(4);
        assert!(big.push_back_at(2, sub.clone()).is_ok());
        assert!(big.push_back_at(3, sub).is_err()); // 2 qubits at offset 3 > 4
        assert_eq!(big.nb_gates(), 2);
    }

    #[test]
    fn block_flags() {
        let mut c = bell_circuit();
        assert!(!c.draws_as_block());
        c.as_block("bell");
        assert!(c.draws_as_block());
        assert_eq!(c.name(), Some("bell"));
        c.un_block();
        assert!(!c.draws_as_block());
    }

    #[test]
    fn unitary_circuit_detection() {
        let mut c = bell_circuit();
        assert!(c.is_unitary_circuit());
        c.push_back(Measurement::z(0));
        assert!(!c.is_unitary_circuit());
        assert!(c.adjoint().is_err());
        assert!(c.to_matrix().is_err());
    }

    /// One `&mut self` mutator call (indices are reduced modulo the
    /// current length).
    #[derive(Clone, Debug)]
    enum Mutation {
        Push(CircuitItem),
        Insert(usize, CircuitItem),
        Erase(usize),
        Clear,
        AsBlock,
        UnBlock,
    }

    fn mutation() -> impl qclab_testkit::Strategy<Value = Mutation> {
        use qclab_testkit::prelude::*;
        let item = || {
            prop_oneof![
                (0..3usize).prop_map(|q| Hadamard::new(q).into()),
                (0..3usize, -3.0..3.0f64).prop_map(|(q, t)| RotationZ::new(q, t).into()),
                (0..2usize).prop_map(|q| CNOT::new(q, q + 1).into()),
                (0..3usize).prop_map(|q| Measurement::z(q).into()),
                (0..3usize).prop_map(CircuitItem::Reset),
                (0..2usize).prop_map(|q| CircuitItem::SubCircuit {
                    offset: q,
                    circuit: bell_circuit(),
                }),
            ]
        };
        prop_oneof![
            item().prop_map(Mutation::Push),
            item().prop_map(Mutation::Push),
            (0..64usize, item()).prop_map(|(i, it)| Mutation::Insert(i, it)),
            (0..64usize).prop_map(Mutation::Erase),
            Just(Mutation::Clear),
            Just(Mutation::AsBlock),
            Just(Mutation::UnBlock),
        ]
    }

    qclab_testkit::proptest! {
        /// The remembered fingerprint never outlives the items it was
        /// hashed from: after every mutator — with the memo filled in
        /// between — it equals the hash of a circuit rebuilt from
        /// scratch, and a clone carries it.
        #[test]
        fn fingerprint_memo_tracks_every_mutator(
            mutations in qclab_testkit::collection::vec(mutation(), 1..24),
        ) {
            let mut c = QCircuit::new(3);
            for m in mutations {
                match m {
                    Mutation::Push(item) => {
                        c.push_back(item);
                    }
                    Mutation::Insert(i, item) => c.insert(i % (c.len() + 1), item).unwrap(),
                    Mutation::Erase(i) if !c.is_empty() => {
                        c.erase(i % c.len());
                    }
                    Mutation::Erase(_) => {}
                    Mutation::Clear => c.clear(),
                    Mutation::AsBlock => {
                        c.as_block("block");
                    }
                    Mutation::UnBlock => {
                        c.un_block();
                    }
                }
                let mut rebuilt = QCircuit::new(3);
                for item in c.items() {
                    rebuilt.push_back(item.clone());
                }
                qclab_testkit::prop_assert_eq!(c.fingerprint(), crate::program::fingerprint(&rebuilt));
                qclab_testkit::prop_assert_eq!(c.clone().fingerprint(), c.fingerprint());
                qclab_testkit::prop_assert_eq!(&c.clone(), &c);
            }
        }
    }

    #[test]
    fn reset_and_barrier_items() {
        let mut c = QCircuit::new(2);
        c.push_back(CircuitItem::Reset(1));
        c.push_back(CircuitItem::Barrier(vec![0, 1]));
        assert!(!c.is_unitary_circuit());
        assert_eq!(c.items()[0].qubits(), vec![1]);
        assert_eq!(c.items()[1].qubits(), vec![0, 1]);
    }
}
