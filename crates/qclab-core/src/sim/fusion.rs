//! Gate-fusion execution pass.
//!
//! State-vector simulation cost is dominated by memory traffic: every
//! gate application streams the full `2^n` amplitude array through the
//! cache hierarchy. Fusing a run of small gates into one dense block
//! (the qsim/qulacs strategy) trades a handful of tiny matrix products —
//! at most `2^k x 2^k` with `k <=` [`MAX_FUSED_QUBITS_LIMIT`] — for
//! entire passes over the state, so a circuit of `g` one/two-qubit gates
//! can execute in far fewer than `g` sweeps.
//!
//! The pass mirrors the causal-adjacency bookkeeping of
//! [`crate::optimize`](mod@crate::optimize): a per-qubit pointer to the last emitted item.
//! A gate is merged into the *latest* block touching any of its qubits.
//! That is always causally sound: if `j` is the maximum `last_on` index
//! over the gate's qubits, no item after `j` touches any of those
//! qubits, so the gate commutes backward to position `j`. Measurements,
//! resets and barriers are fusion walls on their qubits, exactly like
//! the optimizer; sub-circuits are fused recursively but stay opaque.
//!
//! Fusion preserves circuit semantics exactly (it only reassociates the
//! unitary product) and is verified by three-way differential property
//! tests against both unfused backends.
//!
//! The pass also reports where every input item went (`Placed`): noise
//! strikes at *source* gates, so an engine that executes the fused
//! schedule needs the way back (`sim::walk::Landings`).

use crate::circuit::{CircuitItem, QCircuit};
use crate::gates::Gate;
use qclab_math::scalar::{cr, zero, C64};
use qclab_math::CMat;

/// Default cap on the qubit footprint (controls included) of a fused
/// block: two-qubit blocks keep the dense matrices in registers.
pub const DEFAULT_MAX_FUSED_QUBITS: usize = 2;

/// Largest supported fused-block footprint. Beyond four qubits the
/// `2^k x 2^k` matrix product per group outweighs the saved sweeps.
pub const MAX_FUSED_QUBITS_LIMIT: usize = 4;

/// Statistics of one [`fuse_circuit`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Gates in the input circuit (sub-circuits counted recursively).
    pub gates_in: usize,
    /// Gates in the fused circuit.
    pub gates_out: usize,
    /// Fused blocks emitted (each replacing >= 2 input gates).
    pub blocks: usize,
}

/// Where one input item of a fusion pass went: the output item that
/// executes it, and its position among the gates that item was built
/// from (0 for anything but a gate merged into an earlier block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Placed {
    pub(crate) op: usize,
    pub(crate) pos: usize,
}

/// The target matrix of every gate of an item list, row-major, in one
/// buffer: a lowering builds each matrix once and every pass reads it
/// here.
pub(crate) struct TargetMatrices {
    entries: Vec<C64>,
    /// Per item: where its entries start, and its dimension (0 for
    /// anything but a gate).
    at: Vec<(usize, usize)>,
}

impl TargetMatrices {
    pub(crate) fn of(items: &[CircuitItem]) -> Self {
        let mut entries = Vec::with_capacity(4 * items.len());
        let mut at = Vec::with_capacity(items.len());
        for item in items {
            at.push(match item {
                CircuitItem::Gate(g) => (entries.len(), g.write_target_matrix(&mut entries)),
                _ => (0, 0),
            });
        }
        TargetMatrices { entries, at }
    }

    /// Item `i`'s matrix: its dimension and its row-major entries.
    pub(crate) fn get(&self, i: usize) -> (usize, &[C64]) {
        let (start, dim) = self.at[i];
        (dim, &self.entries[start..start + dim * dim])
    }
}

/// The ascending qubit set of a block, at most
/// [`MAX_FUSED_QUBITS_LIMIT`] long.
#[derive(Clone, Copy, Debug, Default)]
struct Footprint {
    qubits: [usize; MAX_FUSED_QUBITS_LIMIT],
    len: usize,
}

impl Footprint {
    fn as_slice(&self) -> &[usize] {
        &self.qubits[..self.len]
    }

    /// Adds `q` in order; `false` when that would exceed `cap` qubits.
    fn insert(&mut self, q: usize, cap: usize) -> bool {
        let at = self.as_slice().partition_point(|&x| x < q);
        if self.as_slice().get(at) == Some(&q) {
            return true;
        }
        if self.len == cap {
            return false;
        }
        self.qubits.copy_within(at..self.len, at + 1);
        self.qubits[at] = q;
        self.len += 1;
        true
    }

    /// The union with `other`, or `None` beyond `cap` qubits.
    fn union(mut self, other: &Footprint, cap: usize) -> Option<Footprint> {
        other
            .as_slice()
            .iter()
            .all(|&q| self.insert(q, cap))
            .then_some(self)
    }
}

/// An item being accumulated during the pass: either a fusable block of
/// gates sharing a bounded qubit footprint — `len` gates, chained from
/// input index `first` to `last` through the pass's `next` links — or an
/// opaque wall.
enum Entry {
    Block {
        first: usize,
        last: usize,
        len: usize,
        qubits: Footprint,
    },
    Item(CircuitItem),
}

/// `out = U · acc` for `2^k x 2^k` row-major matrices, where `U` is the
/// unitary of `gate` (target matrix `m`) on
/// the local register `qubits` (ascending; position in the slice = local
/// qubit, the first one the most significant index bit). Controls are
/// expanded structurally, as in [`super::kron::extended_unitary`]. `U` is
/// never built: row `i` with a control unmet is row `i` of the identity,
/// and otherwise its nonzeros are `m[gather(i), s]` at the columns
/// sharing `i`'s other bits. Those are accumulated in ascending column
/// order, zeros skipped — the order of [`CMat::matmul`] on the dense `U`
/// — so `out` is bit for bit that product.
fn apply_to_block(
    gate: &Gate,
    (m_dim, m): (usize, &[C64]),
    qubits: &[usize],
    acc: &[C64],
    out: &mut [C64],
) {
    let k = qubits.len();
    let dim = 1usize << k;
    let bit = |q: usize| {
        let local = qubits
            .iter()
            .position(|&x| x == q)
            .expect("gate qubit outside its block");
        1usize << (k - 1 - local)
    };
    let targets = gate.target_qubits();
    let t = targets.len();
    let mut target_bits = [0usize; MAX_FUSED_QUBITS_LIMIT];
    for (b, &q) in target_bits.iter_mut().zip(targets.iter()) {
        *b = bit(q);
    }
    // the column offset of every target sub-index, and the sub-indices
    // in ascending order of their offsets
    let mut offset = [0usize; 1 << MAX_FUSED_QUBITS_LIMIT];
    let mut order = [0usize; 1 << MAX_FUSED_QUBITS_LIMIT];
    for s in 0..1 << t {
        offset[s] = (0..t)
            .filter(|idx| (s >> (t - 1 - idx)) & 1 == 1)
            .fold(0, |o, idx| o | target_bits[idx]);
        order[s] = s;
    }
    let order = &mut order[..1 << t];
    order.sort_unstable_by_key(|&s| offset[s]);
    let target_mask = offset[(1 << t) - 1];
    let (controls, states) = gate.control_lists();
    let (mut control_mask, mut control_want) = (0, 0);
    for (&q, &s) in controls.iter().zip(states) {
        control_mask |= bit(q);
        if s == 1 {
            control_want |= bit(q);
        }
    }

    out[..dim * dim].fill(zero());
    for (i, row) in out[..dim * dim].chunks_exact_mut(dim).enumerate() {
        let mut add = |x: C64, k: usize| {
            for (o, &y) in row.iter_mut().zip(&acc[k * dim..(k + 1) * dim]) {
                *o += x * y;
            }
        };
        if i & control_mask != control_want {
            add(cr(1.0), i);
            continue;
        }
        let sub_row = (0..t).fold(0, |r, idx| r << 1 | usize::from(i & target_bits[idx] != 0));
        for &s in order.iter() {
            let x = m[sub_row * m_dim + s];
            if x != zero() {
                add(x, (i & !target_mask) | offset[s]);
            }
        }
    }
}

/// Collapses a finished block into a circuit item: a single gate passes
/// through unchanged (so specialized kernels still apply); a longer run
/// becomes one dense [`Gate::Custom`] block.
fn emit_block(
    (first, len): (usize, usize),
    next: &[usize],
    qubits: &[usize],
    items: &[CircuitItem],
    mats: &TargetMatrices,
    stats: &mut FusionStats,
) -> CircuitItem {
    stats.gates_out += 1;
    if len == 1 {
        return items[first].clone();
    }
    let dim = 1usize << qubits.len();
    // gates apply left to right; matrices multiply right to left,
    // starting from the identity
    let mut acc = vec![zero(); dim * dim];
    for i in 0..dim {
        acc[i * dim + i] = cr(1.0);
    }
    let mut out = vec![zero(); dim * dim];
    let mut g = first;
    for _ in 0..len {
        let CircuitItem::Gate(gate) = &items[g] else {
            unreachable!("blocks hold gates");
        };
        apply_to_block(gate, mats.get(g), qubits, &acc, &mut out);
        std::mem::swap(&mut acc, &mut out);
        g = next[g];
    }
    stats.blocks += 1;
    CircuitItem::Gate(Gate::Custom {
        name: format!("F{len}"),
        qubits: qubits.to_vec(),
        matrix: CMat::from_vec(dim, dim, acc),
    })
}

/// One fusion pass over an item list whose gates' target matrices are
/// `mats`: the fused items, and for every input item its place among
/// them.
pub(crate) fn fuse_items(
    items: &[CircuitItem],
    mats: &TargetMatrices,
    nb_qubits: usize,
    max_fused: usize,
    stats: &mut FusionStats,
) -> (Vec<CircuitItem>, Vec<Placed>) {
    let mut kept: Vec<Entry> = Vec::with_capacity(items.len());
    let mut placed: Vec<Placed> = Vec::with_capacity(items.len());
    let mut last_on: Vec<Option<usize>> = vec![None; nb_qubits];
    // the gate after each gate of a block
    let mut next = vec![usize::MAX; items.len()];

    for (i, item) in items.iter().enumerate() {
        match item {
            CircuitItem::Gate(g) => {
                stats.gates_in += 1;
                let mut gq = Footprint::default();
                if !g.qubit_iter().all(|q| gq.insert(q, max_fused)) {
                    // too wide to fuse: opaque wall on its own qubits
                    let idx = kept.len();
                    placed.push(Placed { op: idx, pos: 0 });
                    kept.push(Entry::Item(item.clone()));
                    for q in g.qubit_iter() {
                        last_on[q] = Some(idx);
                    }
                    continue;
                }
                // latest kept item touching any qubit of the gate: no
                // later item touches those qubits, so merging there
                // preserves causal order
                let pred = gq.as_slice().iter().filter_map(|&q| last_on[q]).max();
                if let Some(j) = pred {
                    if let Entry::Block {
                        last, len, qubits, ..
                    } = &mut kept[j]
                    {
                        if let Some(merged) = qubits.union(&gq, max_fused) {
                            placed.push(Placed { op: j, pos: *len });
                            next[*last] = i;
                            (*last, *len, *qubits) = (i, *len + 1, merged);
                            for &q in gq.as_slice() {
                                last_on[q] = Some(j);
                            }
                            continue;
                        }
                    }
                }
                let idx = kept.len();
                placed.push(Placed { op: idx, pos: 0 });
                kept.push(Entry::Block {
                    first: i,
                    last: i,
                    len: 1,
                    qubits: gq,
                });
                for &q in gq.as_slice() {
                    last_on[q] = Some(idx);
                }
            }
            CircuitItem::SubCircuit { offset, circuit } => {
                // fuse internally, keep opaque here (like the optimizer)
                let sub_fused = fuse_subcircuit(circuit, max_fused, stats);
                let idx = kept.len();
                placed.push(Placed { op: idx, pos: 0 });
                let span = *offset..offset + circuit.nb_qubits();
                kept.push(Entry::Item(CircuitItem::SubCircuit {
                    offset: *offset,
                    circuit: sub_fused,
                }));
                for q in span {
                    last_on[q] = Some(idx);
                }
            }
            other => {
                // measurements, resets and barriers are fusion walls
                let idx = kept.len();
                placed.push(Placed { op: idx, pos: 0 });
                kept.push(Entry::Item(other.clone()));
                for q in other.qubits() {
                    last_on[q] = Some(idx);
                }
            }
        }
    }

    let fused = kept
        .into_iter()
        .map(|e| match e {
            Entry::Block {
                first, len, qubits, ..
            } => emit_block((first, len), &next, qubits.as_slice(), items, mats, stats),
            Entry::Item(item) => {
                if matches!(item, CircuitItem::Gate(_)) {
                    stats.gates_out += 1;
                }
                item
            }
        })
        .collect();
    (fused, placed)
}

fn fuse_subcircuit(circuit: &QCircuit, max_fused: usize, stats: &mut FusionStats) -> QCircuit {
    let mats = TargetMatrices::of(circuit.items());
    let (items, _) = fuse_items(
        circuit.items(),
        &mats,
        circuit.nb_qubits(),
        max_fused,
        stats,
    );
    rebuild(circuit, items)
}

fn rebuild(circuit: &QCircuit, items: Vec<CircuitItem>) -> QCircuit {
    let mut out = QCircuit::new(circuit.nb_qubits());
    if let Some(name) = circuit.name() {
        out.set_name(name);
    }
    if circuit.draws_as_block() {
        let name = circuit.name().unwrap_or("block").to_string();
        out.as_block(&name);
    }
    for item in items {
        out.push_back(item);
    }
    out
}

/// Fuses causally-adjacent runs of gates whose combined qubit footprint
/// (controls included) stays within `max_fused` qubits into single dense
/// [`Gate::Custom`] blocks. `max_fused` is clamped to
/// `1..=`[`MAX_FUSED_QUBITS_LIMIT`]; at 1 only same-qubit single-qubit
/// runs merge. The returned circuit is semantically identical to the
/// input: same register, same unitary, same measurement branching.
pub fn fuse_circuit(circuit: &QCircuit, max_fused: usize) -> (QCircuit, FusionStats) {
    let max_fused = max_fused.clamp(1, MAX_FUSED_QUBITS_LIMIT);
    let mut stats = FusionStats::default();
    let fused = fuse_subcircuit(circuit, max_fused, &mut stats);
    (fused, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use qclab_math::CVec;

    fn assert_same_action(c: &QCircuit, fused: &QCircuit) {
        let m1 = c.to_matrix().expect("original to_matrix");
        let m2 = fused.to_matrix().expect("fused to_matrix");
        assert!(
            m1.approx_eq(&m2, 1e-12),
            "fusion changed the circuit unitary (max diff {})",
            m1.max_abs_diff(&m2)
        );
    }

    #[test]
    fn single_qubit_run_fuses_to_one_block() {
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(TGate::new(0));
        c.push_back(RotationX::new(0, 0.3));
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 1);
        assert_eq!(stats.gates_in, 3);
        assert_eq!(stats.gates_out, 1);
        assert_eq!(stats.blocks, 1);
        assert_same_action(&c, &fused);
    }

    #[test]
    fn two_qubit_ladder_fuses_within_footprint() {
        // H(0) CX(0,1) H(1) share the {0,1} footprint: one block
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Hadamard::new(1));
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 1);
        assert_eq!(stats.blocks, 1);
        assert_same_action(&c, &fused);
    }

    #[test]
    fn footprint_cap_is_respected() {
        // CX(0,1) CX(1,2) would need 3 qubits: must stay separate at cap 2
        let mut c = QCircuit::new(3);
        c.push_back(CNOT::new(0, 1));
        c.push_back(CNOT::new(1, 2));
        let (fused2, _) = fuse_circuit(&c, 2);
        assert_eq!(fused2.nb_gates(), 2);
        // at cap 3 they merge
        let (fused3, stats3) = fuse_circuit(&c, 3);
        assert_eq!(fused3.nb_gates(), 1);
        assert_eq!(stats3.blocks, 1);
        assert_same_action(&c, &fused3);
    }

    #[test]
    fn max_fused_is_clamped_to_limit() {
        let mut c = QCircuit::new(6);
        for q in 0..5 {
            c.push_back(CNOT::new(q, q + 1));
        }
        let (fused, _) = fuse_circuit(&c, 64);
        for item in fused.items() {
            if let CircuitItem::Gate(g) = item {
                assert!(g.qubits().len() <= MAX_FUSED_QUBITS_LIMIT);
            }
        }
        assert_same_action(&c, &fused);
    }

    #[test]
    fn barrier_blocks_fusion() {
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(CircuitItem::Barrier(vec![0]));
        c.push_back(Hadamard::new(0));
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 2);
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn measurement_blocks_fusion() {
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(0));
        c.push_back(Hadamard::new(0));
        let (fused, _) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 2);
        assert_eq!(fused.nb_measurements(), 1);
    }

    #[test]
    fn reset_blocks_fusion() {
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(CircuitItem::Reset(0));
        c.push_back(Hadamard::new(0));
        let (fused, _) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 2);
    }

    #[test]
    fn wall_on_one_qubit_does_not_block_other_qubits() {
        // measurement on q1 must not stop H(0)·T(0) from fusing
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(1));
        c.push_back(TGate::new(0));
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 1);
        assert_eq!(stats.blocks, 1);
    }

    #[test]
    fn merge_across_disjoint_gate_is_causally_sound() {
        // H(0), X(1), H(0): the two H's are causally adjacent and merge
        // to one block; X(1) stays. The simulated state must agree.
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(PauliX::new(1));
        c.push_back(Hadamard::new(0));
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(stats.blocks, 1);
        assert_same_action(&c, &fused);
    }

    #[test]
    fn every_input_item_is_placed_in_the_block_that_executes_it() {
        // H(0) X(1) M(1) H(0) CX(0,2): the second H merges back across
        // the measurement of another qubit, the CNOT joins the same block
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(PauliX::new(1));
        c.push_back(Measurement::z(1));
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 2));
        let mut stats = FusionStats::default();
        let (fused, placed) =
            fuse_items(c.items(), &TargetMatrices::of(c.items()), 3, 2, &mut stats);
        assert_eq!(fused.len(), 3);
        let at = |op, pos| Placed { op, pos };
        assert_eq!(placed, [at(0, 0), at(1, 0), at(2, 0), at(0, 1), at(0, 2)]);
    }

    #[test]
    fn open_and_closed_control_semantics_survive_fusion() {
        for ctrl_state in [0u8, 1u8] {
            let mut c = QCircuit::new(2);
            c.push_back(CNOT::with_control_state(0, 1, ctrl_state));
            c.push_back(CRY::new(0, 1, 0.83));
            let (fused, stats) = fuse_circuit(&c, 2);
            assert_eq!(stats.blocks, 1);
            assert_same_action(&c, &fused);
        }
    }

    #[test]
    fn wide_gate_is_a_wall_on_its_qubits_only() {
        // MCX spans 3 qubits (cap 2): passes through unfused, and the
        // single-qubit gates around it on q3 still merge
        let mut c = QCircuit::new(4);
        c.push_back(Hadamard::new(3));
        c.push_back(MCX::new(&[0, 1], 2, &[1, 0]));
        c.push_back(TGate::new(3));
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(fused.nb_gates(), 2);
        assert_eq!(stats.blocks, 1);
        assert_same_action(&c, &fused);
    }

    #[test]
    fn subcircuits_fuse_recursively_but_stay_opaque() {
        let mut sub = QCircuit::new(2);
        sub.push_back(Hadamard::new(0));
        sub.push_back(CNOT::new(0, 1));
        let mut c = QCircuit::new(3);
        c.push_back_at(1, sub).unwrap();
        let (fused, stats) = fuse_circuit(&c, 2);
        assert_eq!(stats.blocks, 1);
        match &fused.items()[0] {
            CircuitItem::SubCircuit { circuit, .. } => assert_eq!(circuit.nb_gates(), 1),
            other => panic!("expected subcircuit, got {other:?}"),
        }
        assert_same_action(&c, &fused);
    }

    #[test]
    fn fused_blocks_are_unitary_and_validated() {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(RotationZZ::new(0, 1, 0.4));
        c.push_back(SwapGate::new(1, 2));
        let (fused, _) = fuse_circuit(&c, 2);
        for item in fused.items() {
            if let CircuitItem::Gate(Gate::Custom { matrix, .. }) = item {
                assert!(matrix.is_unitary(1e-12));
            }
        }
        assert_same_action(&c, &fused);
    }

    #[test]
    fn fusion_preserves_measurement_branching() {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        let (fused, _) = fuse_circuit(&c, 2);
        let init = CVec::from_bitstring("00").unwrap();
        let a = c.simulate(&init).unwrap();
        let b = fused.simulate(&init).unwrap();
        assert_eq!(a.results(), b.results());
        for (pa, pb) in a.probabilities().iter().zip(b.probabilities()) {
            assert!((pa - pb).abs() < 1e-12);
        }
    }

    #[test]
    fn block_product_matches_extended_unitary() {
        // block-local construction agrees with the kron backend on a
        // register of exactly the block size
        for gate in [
            CNOT::new(0, 1),
            CNOT::with_control_state(1, 0, 0),
            CZ::new(0, 1),
            SwapGate::new(0, 1),
            CRY::new(0, 1, 1.1),
        ] {
            let dense = super::super::kron::extended_unitary(&gate, 2).to_dense();
            let mut local = [zero(); 16];
            let identity = CMat::identity(4);
            let m = gate.target_matrix();
            let m = (m.rows(), m.as_slice());
            apply_to_block(&gate, m, &[0, 1], identity.as_slice(), &mut local);
            let local = CMat::from_vec(4, 4, local.to_vec());
            assert!(local.approx_eq(&dense, 1e-14), "{}", gate.name());
        }
    }

    #[test]
    fn empty_and_gateless_circuits_pass_through() {
        let c = QCircuit::new(2);
        let (fused, stats) = fuse_circuit(&c, 2);
        assert!(fused.is_empty());
        assert_eq!(stats, FusionStats::default());
    }
}
