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
//! [`crate::optimize`]: a per-qubit pointer to the last emitted item.
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
//! The pass also reports where every input item went ([`Placed`]): noise
//! strikes at *source* gates, so an engine that executes the fused
//! schedule needs the way back (`sim::walk::Landings`).

use crate::circuit::{CircuitItem, QCircuit};
use crate::gates::Gate;
use qclab_math::scalar::{cr, C64};
use qclab_math::{bits, CMat};

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

/// An item being accumulated during the pass: either a fusable block of
/// gates sharing a bounded qubit footprint, or an opaque wall.
enum Entry {
    Block {
        gates: Vec<Gate>,
        qubits: Vec<usize>,
    },
    Item(CircuitItem),
}

/// Builds the dense `2^k x 2^k` unitary of `gate` on the local register
/// defined by `qubits` (ascending; position in the slice = local qubit
/// index). Controls are expanded structurally, exactly like
/// [`super::kron::extended_unitary`] but dense and block-local. Also
/// used by the locality pass (`crate::program`) to fold an index-bit
/// transposition into the following gate's matrix.
pub(crate) fn local_unitary(gate: &Gate, qubits: &[usize]) -> CMat {
    let k = qubits.len();
    let dim = 1usize << k;
    let local = |q: usize| {
        qubits
            .iter()
            .position(|&x| x == q)
            .expect("gate qubit outside its block")
    };
    let targets: Vec<usize> = gate.targets().iter().map(|&q| local(q)).collect();
    let controls: Vec<(usize, u8)> = gate
        .controls()
        .iter()
        .map(|&(q, s)| (local(q), s))
        .collect();
    let m = gate.target_matrix();

    let mut u = CMat::zeros(dim, dim);
    'cols: for col in 0..dim {
        for &(q, s) in &controls {
            if bits::qubit_bit(col, q, k) != s as usize {
                u[(col, col)] = cr(1.0);
                continue 'cols;
            }
        }
        let sub_col = bits::gather_bits(col, &targets, k);
        for sub_row in 0..m.rows() {
            let v = m[(sub_row, sub_col)];
            if v != C64::new(0.0, 0.0) {
                u[(bits::scatter_bits(col, sub_row, &targets, k), col)] = v;
            }
        }
    }
    u
}

/// Collapses a finished block into circuit items: single gates pass
/// through unchanged (so specialized kernels still apply); longer runs
/// become one dense [`Gate::Custom`] block.
fn emit_block(gates: Vec<Gate>, qubits: Vec<usize>, stats: &mut FusionStats) -> CircuitItem {
    if gates.len() == 1 {
        stats.gates_out += 1;
        return CircuitItem::Gate(gates.into_iter().next().unwrap());
    }
    let dim = 1usize << qubits.len();
    let mut u = CMat::identity(dim);
    for g in &gates {
        // gates apply left to right; matrices multiply right to left
        u = local_unitary(g, &qubits).matmul(&u);
    }
    stats.gates_out += 1;
    stats.blocks += 1;
    CircuitItem::Gate(Gate::Custom {
        name: format!("F{}", gates.len()),
        qubits,
        matrix: u,
    })
}

/// Sorted union of two ascending qubit lists.
fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = a.to_vec();
    for &q in b {
        if !out.contains(&q) {
            out.push(q);
        }
    }
    out.sort_unstable();
    out
}

/// One fusion pass over an item list: the fused items, and for every
/// input item its place among them.
pub(crate) fn fuse_items(
    items: &[CircuitItem],
    nb_qubits: usize,
    max_fused: usize,
    stats: &mut FusionStats,
) -> (Vec<CircuitItem>, Vec<Placed>) {
    let mut kept: Vec<Entry> = Vec::with_capacity(items.len());
    let mut placed: Vec<Placed> = Vec::with_capacity(items.len());
    let mut last_on: Vec<Option<usize>> = vec![None; nb_qubits];

    for item in items {
        match item {
            CircuitItem::Gate(g) => {
                stats.gates_in += 1;
                let mut gq = g.qubits();
                gq.sort_unstable();
                gq.dedup();
                if gq.len() > max_fused {
                    // too wide to fuse: opaque wall on its own qubits
                    let idx = kept.len();
                    placed.push(Placed { op: idx, pos: 0 });
                    kept.push(Entry::Item(item.clone()));
                    for &q in &gq {
                        last_on[q] = Some(idx);
                    }
                    continue;
                }
                // latest kept item touching any qubit of the gate: no
                // later item touches those qubits, so merging there
                // preserves causal order
                let pred = gq.iter().filter_map(|&q| last_on[q]).max();
                if let Some(j) = pred {
                    if let Entry::Block { gates, qubits } = &mut kept[j] {
                        let merged = union(qubits, &gq);
                        if merged.len() <= max_fused {
                            placed.push(Placed {
                                op: j,
                                pos: gates.len(),
                            });
                            gates.push(g.clone());
                            *qubits = merged;
                            for &q in &gq {
                                last_on[q] = Some(j);
                            }
                            continue;
                        }
                    }
                }
                let idx = kept.len();
                placed.push(Placed { op: idx, pos: 0 });
                kept.push(Entry::Block {
                    gates: vec![g.clone()],
                    qubits: gq.clone(),
                });
                for &q in &gq {
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
            Entry::Block { gates, qubits } => emit_block(gates, qubits, stats),
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
    let (items, _) = fuse_items(circuit.items(), circuit.nb_qubits(), max_fused, stats);
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
    let (items, _) = fuse_items(circuit.items(), circuit.nb_qubits(), max_fused, &mut stats);
    (rebuild(circuit, items), stats)
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
        let (fused, placed) = fuse_items(c.items(), 3, 2, &mut stats);
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
    fn local_unitary_matches_extended_unitary() {
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
            let local = local_unitary(&gate, &[0, 1]);
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
