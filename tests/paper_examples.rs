//! End-to-end integration tests reproducing every concrete output the
//! QCLAB paper reports, section by section. These are the executable
//! version of EXPERIMENTS.md.

use qclab::prelude::*;
use qclab_algorithms::grover::{grover_circuit, paper_diffuser_2q};
use qclab_algorithms::qec::{bit_flip_circuit, logical_fidelity, protect, InjectedError};
use qclab_algorithms::teleportation::teleport;
use qclab_algorithms::tomography::tomography;
use qclab_core::sim::kron;
use qclab_math::scalar::{c, cr};

const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

fn paper_v() -> CVec {
    CVec(vec![cr(INV_SQRT2), c(0.0, INV_SQRT2)])
}

fn bell_circuit() -> QCircuit {
    let mut circuit = QCircuit::new(2);
    circuit.push_back(Hadamard::new(0));
    circuit.push_back(CNOT::new(0, 1));
    circuit.push_back(Measurement::z(0));
    circuit.push_back(Measurement::z(1));
    circuit
}

// ---------------------------------------------------------------- Sec. 2/3

#[test]
fn section3_circuit1_simulation() {
    let sim = bell_circuit().simulate_bitstring("00").unwrap();
    assert_eq!(sim.results(), &["00", "11"]);
    assert!((sim.probabilities()[0] - 0.5).abs() < 1e-12);
    assert!((sim.probabilities()[1] - 0.5).abs() < 1e-12);
}

#[test]
fn section3_vector_initial_state_equivalent() {
    // the paper allows '00' or the kron of basis vectors
    let zero = CVec::basis_state(2, 0);
    let init = zero.kron(&zero);
    let sim = bell_circuit().simulate(&init).unwrap();
    assert_eq!(sim.results(), &["00", "11"]);
}

#[test]
fn section3_both_backends_reproduce_circuit1() {
    let zero = CVec::from_bitstring("00").unwrap();
    let opts = SimOptions::default();
    for sim in [
        kron::simulate(&bell_circuit(), &zero, &opts),
        bell_circuit().simulate_with(&zero, &opts),
    ] {
        assert_eq!(sim.unwrap().results(), &["00", "11"]);
    }
}

// ---------------------------------------------------------------- Sec. 4

#[test]
fn section4_qasm_listing_matches_paper() {
    let mut circuit = bell_circuit();
    let _ = &mut circuit;
    let qasm = to_qasm(&circuit).unwrap();
    let expected = "OPENQASM 2.0;\n\
                    include \"qelib1.inc\";\n\
                    qreg q[2];\n\
                    creg c[2];\n\
                    h q[0];\n\
                    cx q[0], q[1];\n\
                    measure q[0] -> c[0];\n\
                    measure q[1] -> c[1];\n";
    assert_eq!(qasm, expected);
    // and re-importing the listing reproduces circuit (1)
    let back = from_qasm(&qasm).unwrap();
    assert_eq!(
        back.simulate_bitstring("00").unwrap().results(),
        &["00", "11"]
    );
}

#[test]
fn section4_draw_and_totex_produce_output() {
    let circuit = bell_circuit();
    let art = draw_circuit(&circuit);
    assert!(art.contains("┤ H ├"));
    assert!(art.contains('●'));
    let tex = to_tex(&circuit);
    assert!(tex.contains("\\begin{quantikz}"));
    assert!(tex.contains("\\gate{H}"));
}

// ---------------------------------------------------------------- Sec. 5.1

#[test]
fn section51_teleportation_full_reproduction() {
    let out = teleport(&paper_v()).unwrap();
    // four distinct outcomes at 0.25 each
    assert_eq!(out.simulation.results(), &["00", "01", "10", "11"]);
    for p in out.simulation.probabilities() {
        assert!((p - 0.25).abs() < 1e-12);
    }
    // the paper prints 4 state vectors of dimension 8
    assert_eq!(out.simulation.states().len(), 4);
    for s in out.simulation.states() {
        assert_eq!(s.len(), 8);
    }
    // reducedStatevector(states(1), [0,1], '00') == |v>; the paper prints
    // the amplitudes as 0.7071 ± 0.0000i
    let red = reduced_statevector(out.simulation.states()[0], &[0, 1], "00").unwrap();
    assert!((red[0].re - INV_SQRT2).abs() < 5e-5);
    assert!((red[1].im - INV_SQRT2).abs() < 5e-5);
    // reducedStates is not applicable: only mid-circuit measurements but
    // the measured qubits survive as product states, so it still works —
    // verify both views agree
    let reduced = out.simulation.reduced_states().unwrap();
    for r in &reduced {
        assert!(r.approx_eq_up_to_phase(&paper_v(), 1e-10));
    }
}

// ---------------------------------------------------------------- Sec. 5.2

#[test]
fn section52_tomography_reproduction() {
    let t = tomography(&paper_v(), 1000, 1).unwrap();
    // counts sum to shots in each basis
    assert_eq!(t.counts_x.0 + t.counts_x.1, 1000);
    assert_eq!(t.counts_y.0 + t.counts_y.1, 1000);
    assert_eq!(t.counts_z.0 + t.counts_z.1, 1000);
    // S0 is exactly 1 by construction; S2 close to 1 for |v>
    assert!((t.s[0] - 1.0).abs() < 1e-12);
    assert!((t.s[2] - 1.0).abs() < 0.05);
    // trace distance in the paper's regime (paper: 0.006 with MATLAB rng)
    let d = DensityMatrix::from_pure(&paper_v()).trace_distance(&t.rho_est);
    assert!(d < 0.05, "trace distance {d}");
}

#[test]
fn section52_y_measurement_of_v_is_deterministic() {
    // |v> is the +1 eigenstate of Y, so P_y(0) = 1 exactly
    let mut c = QCircuit::new(1);
    c.push_back(Measurement::y(0));
    let sim = c.simulate(&paper_v()).unwrap();
    assert_eq!(sim.results(), &["0"]);
}

// ---------------------------------------------------------------- Sec. 5.3

#[test]
fn section53_grover_reproduction() {
    let sim = grover_circuit(2, "11", 1).simulate_bitstring("00").unwrap();
    assert_eq!(sim.results(), &["11"]);
    assert!((sim.probabilities()[0] - 1.0).abs() < 1e-10);
}

#[test]
fn section53_paper_block_construction_verbatim() {
    // build the circuit exactly as the paper lists it, blocks included
    let mut oracle = QCircuit::new(2);
    oracle.push_back(CZ::new(0, 1));
    oracle.as_block("oracle");

    let diffuser = paper_diffuser_2q();

    let mut gc = QCircuit::new(2);
    gc.push_back(Hadamard::new(0));
    gc.push_back(Hadamard::new(1));
    gc.push_back(oracle);
    gc.push_back(diffuser);
    gc.push_back(Measurement::z(0));
    gc.push_back(Measurement::z(1));

    let sim = gc.simulate_bitstring("00").unwrap();
    assert_eq!(sim.results(), &["11"]);
    assert!((sim.probabilities()[0] - 1.0).abs() < 1e-10);

    // the blocks draw as boxes
    let art = draw_circuit(&gc);
    assert!(art.contains("oracle"));
    assert!(art.contains("diffuser"));
}

// ---------------------------------------------------------------- Sec. 5.4

#[test]
fn section54_qec_reproduction() {
    let sim = protect(&bit_flip_circuit(InjectedError::BitFlip(0)), &paper_v()).unwrap();
    // the paper's measurement result '11'
    assert_eq!(sim.results(), &["11"]);
    assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
    // physical qubits restored to α|000> + β|111>
    assert!(logical_fidelity(&sim, &paper_v()) > 1.0 - 1e-10);
}

#[test]
fn section54_all_correctable_errors() {
    for (err, syndrome) in [
        (InjectedError::None, "00"),
        (InjectedError::BitFlip(0), "11"),
        (InjectedError::BitFlip(1), "10"),
        (InjectedError::BitFlip(2), "01"),
    ] {
        let sim = protect(&bit_flip_circuit(err), &paper_v()).unwrap();
        assert_eq!(sim.results(), &[syndrome]);
        assert!(logical_fidelity(&sim, &paper_v()) > 1.0 - 1e-10);
    }
}

// ---------------------------------------------------------------- Sec. 6

#[test]
fn section6_custom_gate_support() {
    // the paper's differentiator: user-defined gates with validation
    let u = qclab::core::gates::matrices::u3(0.3, 0.1, -0.2);
    let g = CustomGate::new("mine", &[1], u.clone()).unwrap();
    let mut c = QCircuit::new(2);
    c.push_back(g);
    let m = c.to_matrix().unwrap();
    // acts as I ⊗ u
    let expected = u.embed(2, 1);
    assert!(m.approx_eq(&expected, 1e-12));
}

#[test]
fn section6_custom_measurement_basis() {
    // measure |v> in its own basis: deterministic outcome 0
    let v = paper_v();
    let orth = CVec(vec![cr(INV_SQRT2), c(0.0, -INV_SQRT2)]);
    let basis = CMat::from_fn(2, 2, |r, cl| if cl == 0 { v[r] } else { orth[r] });
    let m = Measurement::in_basis(0, "v", basis).unwrap();
    let mut c = QCircuit::new(1);
    c.push_back(m);
    let sim = c.simulate(&v).unwrap();
    assert_eq!(sim.results(), &["0"]);
    assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
}
