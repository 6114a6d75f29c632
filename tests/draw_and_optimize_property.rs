//! Property tests for the renderers (never panic, structural invariants
//! hold on arbitrary circuits) and the optimizer (semantics-preserving
//! and idempotent).

mod common;

use common::circuit;
use qclab::prelude::*;
use qclab_core::optimize::optimize;
use qclab_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// The ASCII renderer handles any circuit and keeps basic structure:
    /// 3 rows per qubit, a wire label per qubit, trimmed lines.
    #[test]
    fn ascii_renderer_total(c in circuit(4, 14)) {
        let art = draw_circuit(&c);
        let lines: Vec<&str> = art.lines().collect();
        prop_assert_eq!(lines.len(), 3 * c.nb_qubits());
        for q in 0..c.nb_qubits() {
            let label = format!("q{q}: ");
            prop_assert!(lines[3 * q + 1].starts_with(&label));
        }
        for line in &lines {
            prop_assert_eq!(*line, line.trim_end());
        }
    }

    /// The LaTeX exporter emits one quantikz row per qubit with equal
    /// column counts.
    #[test]
    fn latex_rows_are_rectangular(c in circuit(4, 14)) {
        let body = qclab_draw::latex::render_body(&qclab_draw::layout(&c));
        let rows: Vec<&str> = body.lines().collect();
        prop_assert_eq!(rows.len(), c.nb_qubits());
        let cols: Vec<usize> = rows.iter().map(|r| r.matches('&').count()).collect();
        for w in cols.windows(2) {
            prop_assert_eq!(w[0], w[1], "ragged quantikz rows:\n{}", body);
        }
    }

    /// Optimization preserves the circuit unitary exactly.
    #[test]
    fn optimizer_preserves_unitary(c in circuit(3, 16)) {
        let (opt, _) = optimize(&c);
        prop_assert!(opt.nb_gates() <= c.nb_gates());
        let m1 = c.to_matrix().unwrap();
        let m2 = opt.to_matrix().unwrap();
        prop_assert!(m1.approx_eq(&m2, 1e-9), "optimizer changed the unitary");
    }

    /// Optimization is idempotent: a second run changes nothing.
    #[test]
    fn optimizer_is_idempotent(c in circuit(3, 16)) {
        let (once, _) = optimize(&c);
        let (twice, stats) = optimize(&once);
        prop_assert_eq!(once.nb_gates(), twice.nb_gates());
        prop_assert_eq!(stats.pairs_cancelled, 0);
        prop_assert_eq!(stats.rotations_fused, 0);
        prop_assert_eq!(stats.identities_removed, 0);
    }

    /// Optimizing then drawing still works (pipeline smoke test).
    #[test]
    fn optimize_then_render(c in circuit(4, 10)) {
        let (opt, _) = optimize(&c);
        if opt.is_empty() {
            return Ok(());
        }
        let art = draw_circuit(&opt);
        prop_assert!(!art.is_empty());
    }
}

#[test]
fn optimizer_shrinks_redundant_qft_pair() {
    // QFT followed by its inverse collapses entirely
    let mut c = qclab_algorithms::qft(4);
    for item in qclab_algorithms::iqft(4).items() {
        c.push_back(item.clone());
    }
    let (opt, _) = qclab_core::optimize::optimize(&c);
    assert_eq!(opt.nb_gates(), 0, "QFT·QFT† should fully cancel");
}
