//! Cross-crate pipeline tests: circuits built by the synthesis layers
//! flow through the optimizer, the QASM round trip, the renderers and
//! both simulators without losing their semantics.

use qclab::prelude::*;
use qclab_algorithms::block_encoding::{encoded_block, fable};
use qclab_algorithms::state_preparation::prepare_state;
use qclab_algorithms::trotter::{evolve, exact_evolution, TrotterOrder};
use qclab_core::observable::Observable;
use qclab_core::optimize::optimize;
use qclab_core::sim::kron;
use qclab_math::scalar::{c, cr};

#[test]
fn trotter_optimize_qasm_pipeline() {
    // build a Trotter circuit, optimize it, export/import QASM, and
    // verify the unitary survived every stage
    let h = Observable::ising_chain(3, 1.0, 0.6);
    let circuit = evolve(&h, 0.8, 3, TrotterOrder::Second);
    let reference = circuit.to_matrix().unwrap();

    let (optimized, stats) = optimize(&circuit);
    assert!(
        optimized.nb_gates() < circuit.nb_gates(),
        "no fusion happened"
    );
    assert!(stats.rotations_fused > 0);
    assert!(optimized.to_matrix().unwrap().approx_eq(&reference, 1e-9));

    let qasm = to_qasm(&optimized).unwrap();
    let back = from_qasm(&qasm).unwrap();
    assert!(back.to_matrix().unwrap().approx_eq(&reference, 1e-9));

    // the exact evolution agrees up to Trotter error
    let exact = exact_evolution(&h, 0.8);
    let err = reference.max_abs_diff(&exact);
    assert!(err < 0.05, "Trotter circuit too far from exact: {err}");
}

#[test]
fn state_prep_qasm_and_draw_pipeline() {
    let psi = CVec(vec![cr(0.5), c(0.0, 0.5), c(0.5, 0.0), cr(-0.5)]);
    let circuit = prepare_state(&psi).unwrap();

    // QASM round trip preserves the prepared state
    let back = from_qasm(&to_qasm(&circuit).unwrap()).unwrap();
    let sim = back.simulate_bitstring("00").unwrap();
    assert!(sim.states()[0].approx_eq_up_to_phase(&psi, 1e-9));

    // renderers accept it
    assert!(!draw_circuit(&circuit).is_empty());
    assert!(to_tex(&circuit).contains("\\begin{quantikz}"));
}

#[test]
fn block_encoding_qasm_pipeline() {
    // FABLE uses only H/RY/CNOT/SWAP — fully QASM-exportable
    let a = CMat::from_fn(4, 4, |i, j| cr(if i == j { 0.7 } else { 0.1 }));
    let enc = fable(&a, 0.0).unwrap();
    let qasm = to_qasm(&enc.circuit).unwrap();
    let back = from_qasm(&qasm).unwrap();
    let block = CMat::from_fn(4, 4, |i, j| {
        back.to_matrix().unwrap()[(i, j)] / cr(enc.scale)
    });
    assert!(block.approx_eq(&a, 1e-9));
    let _ = encoded_block(&enc).unwrap();
}

#[test]
fn both_backends_agree_on_synthesized_circuits() {
    let psi = CVec(vec![
        cr(0.1),
        c(0.3, 0.2),
        c(0.0, -0.5),
        cr(0.4),
        cr(0.2),
        c(0.1, 0.1),
        cr(-0.3),
        c(0.2, -0.4),
    ])
    .normalized();
    let circuit = prepare_state(&psi).unwrap();
    let init = CVec::basis_state(8, 0);
    let opts = SimOptions::default();
    for (backend, sim) in [
        ("kron", kron::simulate(&circuit, &init, &opts)),
        ("kernel", circuit.simulate_with(&init, &opts)),
    ] {
        assert!(
            sim.unwrap().states()[0].approx_eq_up_to_phase(&psi, 1e-9),
            "{backend} failed to prepare the state"
        );
    }
}

#[test]
fn noisy_density_and_pure_simulators_agree_at_zero_noise() {
    use qclab::core::sim::control::ExecutionControl;
    use qclab::core::sim::density::{run_noisy, DensityState, NoiseModel};
    let h = Observable::heisenberg_xxz(3, 0.7, 0.4);
    let circuit = evolve(&h, 0.5, 2, TrotterOrder::First);
    let init = CVec::basis_state(8, 5);

    let pure = circuit.simulate(&init).unwrap();
    let dm = run_noisy(
        &circuit,
        &DensityState::from_pure(&init),
        &NoiseModel { after_gate: None },
        &ExecutionControl::none(),
    )
    .unwrap();
    let f = dm.fidelity_with_pure(pure.states()[0]);
    assert!((f - 1.0).abs() < 1e-10, "simulators disagree: fidelity {f}");
}
