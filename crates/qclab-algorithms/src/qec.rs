//! Quantum error correction with distance-3 repetition codes
//! (paper Sec. 5.4).
//!
//! Builds the paper's 5-qubit bit-flip circuit — encode, inject an error,
//! extract the syndrome into two ancillas, measure them mid-circuit, and
//! correct with multi-controlled X gates — plus the dual phase-flip code
//! obtained by conjugating with Hadamards.

use qclab_core::prelude::*;
use qclab_core::sim::kernel::{self, KernelConfig};
use qclab_math::CVec;

/// Which single-qubit error (if any) to inject between encoding and
/// syndrome extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedError {
    /// No error: the syndrome must read `00`.
    None,
    /// Bit flip (X) on the given physical qubit (0, 1 or 2).
    BitFlip(usize),
    /// Phase flip (Z) on the given physical qubit — only correctable by
    /// the phase-flip code.
    PhaseFlip(usize),
}

/// The paper's bit-flip repetition-code circuit on 5 qubits: data qubits
/// 0–2, ancillas 3–4. `error` selects the injected fault.
pub fn bit_flip_circuit(error: InjectedError) -> QCircuit {
    let mut qec = QCircuit::new(5);
    // encode |v> into α|000> + β|111>
    qec.push_back(CNOT::new(0, 1));
    qec.push_back(CNOT::new(0, 2));
    // inject the error
    match error {
        InjectedError::None => {}
        InjectedError::BitFlip(q) => {
            assert!(q < 3, "error must hit a data qubit");
            qec.push_back(PauliX::new(q));
        }
        InjectedError::PhaseFlip(q) => {
            assert!(q < 3, "error must hit a data qubit");
            qec.push_back(PauliZ::new(q));
        }
    }
    // syndrome extraction: ancilla 3 compares q0/q1, ancilla 4 q0/q2
    qec.push_back(CNOT::new(0, 3));
    qec.push_back(CNOT::new(1, 3));
    qec.push_back(CNOT::new(0, 4));
    qec.push_back(CNOT::new(2, 4));
    // mid-circuit syndrome measurement
    qec.push_back(Measurement::z(3));
    qec.push_back(Measurement::z(4));
    // correction: the paper's three multi-controlled X gates
    qec.push_back(MCX::new(&[3, 4], 2, &[0, 1]));
    qec.push_back(MCX::new(&[3, 4], 1, &[1, 0]));
    qec.push_back(MCX::new(&[3, 4], 0, &[1, 1]));
    qec
}

/// The dual phase-flip code: the bit-flip circuit conjugated with
/// Hadamards on the data qubits, correcting a single Z error.
pub fn phase_flip_circuit(error: InjectedError) -> QCircuit {
    let mut qec = QCircuit::new(5);
    qec.push_back(CNOT::new(0, 1));
    qec.push_back(CNOT::new(0, 2));
    for q in 0..3 {
        qec.push_back(Hadamard::new(q));
    }
    match error {
        InjectedError::None => {}
        InjectedError::PhaseFlip(q) => {
            assert!(q < 3);
            qec.push_back(PauliZ::new(q));
        }
        InjectedError::BitFlip(q) => {
            assert!(q < 3);
            qec.push_back(PauliX::new(q));
        }
    }
    for q in 0..3 {
        qec.push_back(Hadamard::new(q));
    }
    qec.push_back(CNOT::new(0, 3));
    qec.push_back(CNOT::new(1, 3));
    qec.push_back(CNOT::new(0, 4));
    qec.push_back(CNOT::new(2, 4));
    qec.push_back(Measurement::z(3));
    qec.push_back(Measurement::z(4));
    qec.push_back(MCX::new(&[3, 4], 2, &[0, 1]));
    qec.push_back(MCX::new(&[3, 4], 1, &[1, 0]));
    qec.push_back(MCX::new(&[3, 4], 0, &[1, 1]));
    qec
}

/// The ancilla-reuse variant of the bit-flip code (paper footnote 3 and
/// refs [9, 13]): a **single** ancilla extracts both syndrome bits, with
/// a reset between the two parity measurements. The correction is not a
/// coherent multi-controlled gate — it is applied classically per branch
/// by [`correct_by_pauli_frame`], exactly the "Pauli frame" software
/// correction the paper's footnote describes.
pub fn bit_flip_circuit_ancilla_reuse(error: InjectedError) -> QCircuit {
    let mut qec = QCircuit::new(4);
    qec.push_back(CNOT::new(0, 1));
    qec.push_back(CNOT::new(0, 2));
    match error {
        InjectedError::None => {}
        InjectedError::BitFlip(q) => {
            assert!(q < 3);
            qec.push_back(PauliX::new(q));
        }
        InjectedError::PhaseFlip(q) => {
            assert!(q < 3);
            qec.push_back(PauliZ::new(q));
        }
    }
    // first parity check (q0 ⊕ q1) into the single ancilla
    qec.push_back(CNOT::new(0, 3));
    qec.push_back(CNOT::new(1, 3));
    qec.push_back(Measurement::z(3));
    // reuse: reset and extract the second parity (q0 ⊕ q2)
    qec.push_back(CircuitItem::Reset(3));
    qec.push_back(CNOT::new(0, 3));
    qec.push_back(CNOT::new(2, 3));
    qec.push_back(Measurement::z(3));
    qec
}

/// Applies the Pauli-frame correction to each branch of an
/// ancilla-reuse run: the two recorded syndrome bits select which data
/// qubit (if any) to flip, and the X is applied in software to the
/// branch state. Returns `(syndrome, corrected state)` per branch.
pub fn correct_by_pauli_frame(sim: &qclab_core::Simulation) -> Vec<(String, CVec)> {
    let n = sim.nb_qubits();
    sim.branches()
        .iter()
        .map(|b| {
            let syndrome = b.result().to_string();
            let flip = match syndrome.as_str() {
                "11" => Some(0),
                "10" => Some(1),
                "01" => Some(2),
                _ => None,
            };
            let mut state = b.state().clone();
            if let Some(q) = flip {
                kernel::apply_gate(&Gate::PauliX(q), &mut state, n, &KernelConfig::default());
            }
            (syndrome, state)
        })
        .collect()
}

/// Runs a repetition-code circuit on `|v> ⊗ |0000>` and returns the
/// simulation. `v` is the single-qubit state to protect.
pub fn protect(circuit: &QCircuit, v: &CVec) -> Result<qclab_core::Simulation, QclabError> {
    assert_eq!(v.len(), 2, "protect expects a single-qubit state");
    let rest = CVec::basis_state(1 << (circuit.nb_qubits() - 1), 0);
    let initial = v.kron(&rest);
    circuit.simulate(&initial)
}

/// Distance-`d` bit-flip repetition code as a sampling workload for the
/// trajectory engine: encode `|0⟩` into `|0…0⟩ + noise`, optionally
/// inject one deterministic fault, and measure every data qubit in Z.
/// The measurement record is decoded classically by [`majority_decode`].
///
/// `distance` must be odd (ties are undecodable) and `error`, when not
/// [`InjectedError::None`], must hit a qubit `< distance`.
pub fn repetition_code_circuit(distance: usize, error: InjectedError) -> QCircuit {
    assert!(distance >= 1, "distance must be at least 1");
    assert!(distance % 2 == 1, "distance must be odd");
    let mut c = QCircuit::new(distance);
    // encode |0> -> |0...0>: the CNOT fan-out is the identity on |0...0>
    // but keeps the circuit shape faithful to the encoded memory
    for q in 1..distance {
        c.push_back(CNOT::new(0, q));
    }
    match error {
        InjectedError::None => {}
        InjectedError::BitFlip(q) => {
            assert!(q < distance, "error must hit a data qubit");
            c.push_back(PauliX::new(q));
        }
        InjectedError::PhaseFlip(q) => {
            assert!(q < distance, "error must hit a data qubit");
            c.push_back(PauliZ::new(q));
        }
    }
    for q in 0..distance {
        c.push_back(Measurement::z(q));
    }
    c
}

/// Majority-vote decoder for a repetition-code measurement record:
/// returns the logical bit (`0` or `1`) carried by the record.
pub fn majority_decode(record: &str) -> u8 {
    let ones = record.chars().filter(|&c| c == '1').count();
    u8::from(2 * ones > record.len())
}

/// Monte-Carlo logical error rate of the distance-`d` repetition code
/// under independent bit-flip noise of strength `p` before each
/// measurement, estimated with `shots` trajectories of the fault
/// injection engine ([`qclab_core::sim::trajectory`]). The logical
/// qubit starts in `|0⟩`, so any record that majority-decodes to `1`
/// is a logical failure.
///
/// Deterministic in `(distance, p, shots, seed)`. Converges to
/// [`analytic_logical_error_rate`] as `O(1/√shots)`; for `p < 1/2` the
/// rate falls with growing distance.
pub fn logical_error_rate(
    distance: usize,
    p: f64,
    shots: u64,
    seed: u64,
) -> Result<f64, QclabError> {
    use qclab_core::sim::trajectory::{
        run_trajectories, NoiseSpec, PauliChannel, TrajectoryConfig,
    };
    let circuit = repetition_code_circuit(distance, InjectedError::None);
    let config = TrajectoryConfig {
        seed,
        shots,
        noise: NoiseSpec {
            before_measure: Some(PauliChannel::BitFlip(p)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    let result = run_trajectories(&circuit, &config)?;
    let failures: u64 = result
        .counts()
        .iter()
        .filter(|(record, _)| majority_decode(record) == 1)
        .map(|(_, &count)| count)
        .sum();
    Ok(failures as f64 / result.shots() as f64)
}

/// Exact logical error rate of the distance-`d` repetition code under
/// i.i.d. bit-flip noise of strength `p`:
/// `Σ_{k > d/2} C(d, k) · p^k · (1−p)^{d−k}`.
pub fn analytic_logical_error_rate(distance: usize, p: f64) -> f64 {
    let d = distance;
    let mut rate = 0.0;
    for k in (d / 2 + 1)..=d {
        // C(d, k) built incrementally to stay exact for small d
        let mut binom = 1.0;
        for i in 0..k {
            binom *= (d - i) as f64 / (k - i) as f64;
        }
        rate += binom * p.powi(k as i32) * (1.0 - p).powi((d - k) as i32);
    }
    rate
}

/// A single-qubit Pauli error for [`shor_code_circuit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauliError {
    X(usize),
    Y(usize),
    Z(usize),
}

/// The full Shor nine-qubit code with coherent syndrome extraction and
/// correction: protects against an **arbitrary** single-qubit error
/// (the composition of the bit-flip and phase-flip repetition codes).
///
/// Register layout: data qubits 0–8 (three blocks of three), bit-flip
/// ancillas 9–14 (two per block), phase-flip ancillas 15–16.
/// The circuit encodes, injects `error`, extracts and corrects both
/// error types with multi-controlled gates, and finally **decodes** back
/// onto qubit 0, so callers can check the reduced state of qubit 0
/// directly.
pub fn shor_code_circuit(error: Option<PauliError>) -> QCircuit {
    let mut c = QCircuit::new(17);

    // ---- encode: phase-level repetition, then bit-level per block
    c.push_back(CNOT::new(0, 3));
    c.push_back(CNOT::new(0, 6));
    for b in [0usize, 3, 6] {
        c.push_back(Hadamard::new(b));
        c.push_back(CNOT::new(b, b + 1));
        c.push_back(CNOT::new(b, b + 2));
    }

    // ---- inject the error
    match error {
        None => {}
        Some(PauliError::X(q)) => {
            assert!(q < 9);
            c.push_back(PauliX::new(q));
        }
        Some(PauliError::Z(q)) => {
            assert!(q < 9);
            c.push_back(PauliZ::new(q));
        }
        Some(PauliError::Y(q)) => {
            assert!(q < 9);
            c.push_back(PauliY::new(q));
        }
    }

    // ---- bit-flip syndrome + correction per block
    for (b, anc) in [(0usize, 9usize), (3, 11), (6, 13)] {
        let (a1, a2) = (anc, anc + 1);
        c.push_back(CNOT::new(b, a1));
        c.push_back(CNOT::new(b + 1, a1));
        c.push_back(CNOT::new(b, a2));
        c.push_back(CNOT::new(b + 2, a2));
        c.push_back(MCX::new(&[a1, a2], b + 2, &[0, 1]));
        c.push_back(MCX::new(&[a1, a2], b + 1, &[1, 0]));
        c.push_back(MCX::new(&[a1, a2], b, &[1, 1]));
    }

    // ---- phase-flip syndrome: X-parity of blocks (0,1) and (1,2),
    // extracted with |+>-ancillas controlling CNOTs into the data
    let (p1, p2) = (15usize, 16usize);
    c.push_back(Hadamard::new(p1));
    for q in 0..6 {
        c.push_back(CNOT::new(p1, q));
    }
    c.push_back(Hadamard::new(p1));
    c.push_back(Hadamard::new(p2));
    for q in 3..9 {
        c.push_back(CNOT::new(p2, q));
    }
    c.push_back(Hadamard::new(p2));

    // correction: Z on one qubit of the flagged block
    c.push_back(MCZ::new(&[p1, p2], 0, &[1, 0]));
    c.push_back(MCZ::new(&[p1, p2], 3, &[1, 1]));
    c.push_back(MCZ::new(&[p1, p2], 6, &[0, 1]));

    // ---- decode (reverse of the encoding)
    for b in [0usize, 3, 6] {
        c.push_back(CNOT::new(b, b + 2));
        c.push_back(CNOT::new(b, b + 1));
        c.push_back(Hadamard::new(b));
    }
    c.push_back(CNOT::new(0, 6));
    c.push_back(CNOT::new(0, 3));
    c
}

/// Runs the Shor code on `|v>` and returns the fidelity of the decoded
/// qubit 0 with `v` (ancillas and spent data qubits traced out via
/// contraction — they are in product states after decoding).
pub fn shor_code_fidelity(v: &CVec, error: Option<PauliError>) -> f64 {
    let circuit = shor_code_circuit(error);
    let sim = protect(&circuit, v).expect("shor code simulation");
    assert_eq!(sim.branches().len(), 1, "no measurements -> single branch");
    let state = sim.states()[0];
    let rho = qclab_math::DensityMatrix::single_qubit_from_pure(state, 0);
    rho.fidelity_with_pure(v)
}

/// Memory-error experiment on the repetition code, run on the
/// density-matrix simulator: every data qubit passes through a bit-flip
/// channel of strength `p`, the syndrome is extracted and corrected
/// **coherently** (the paper's multi-controlled-X construction, no
/// measurement needed), and the logical qubit is decoded.
///
/// Returns `(unprotected fidelity, protected fidelity)` with the input
/// state `v`: the unprotected baseline sends a bare qubit through the
/// same channel. For ideal gates the protected fidelity is exactly
/// `1 − 3p² + 2p³` (the code corrects any single flip), so the
/// encoded qubit beats the bare one for every `p < 1/2`.
pub fn memory_error_experiment(p: f64, v: &CVec) -> (f64, f64) {
    use qclab_core::sim::density::{DensityState, NoiseChannel};
    assert_eq!(v.len(), 2);

    // unprotected: one qubit through the channel
    let mut bare = DensityState::from_pure(v);
    bare.apply_channel(0, &NoiseChannel::BitFlip(p));
    let f_bare = bare.fidelity_with_pure(v);

    // protected: encode, noise on the data qubits, coherent correction,
    // decode, trace out everything but the logical qubit
    let mut ds = DensityState::from_pure(&v.kron(&CVec::basis_state(16, 0)));
    let apply = |ds: &mut DensityState, g: qclab_core::Gate| ds.apply_gate(&g);
    apply(&mut ds, CNOT::new(0, 1));
    apply(&mut ds, CNOT::new(0, 2));
    for q in 0..3 {
        ds.apply_channel(q, &NoiseChannel::BitFlip(p));
    }
    apply(&mut ds, CNOT::new(0, 3));
    apply(&mut ds, CNOT::new(1, 3));
    apply(&mut ds, CNOT::new(0, 4));
    apply(&mut ds, CNOT::new(2, 4));
    apply(&mut ds, MCX::new(&[3, 4], 2, &[0, 1]));
    apply(&mut ds, MCX::new(&[3, 4], 1, &[1, 0]));
    apply(&mut ds, MCX::new(&[3, 4], 0, &[1, 1]));
    // decode back onto qubit 0
    apply(&mut ds, CNOT::new(0, 2));
    apply(&mut ds, CNOT::new(0, 1));

    let rho = ds.to_density_matrix().partial_trace_keep(&[0]);
    let f_protected = rho.fidelity_with_pure(v);
    (f_bare, f_protected)
}

/// Checks that the logical state survived: the data qubits of every
/// branch must carry `α|000> + β|111>` (ancillas are in their measured
/// states). Returns the worst-case fidelity across branches.
pub fn logical_fidelity(sim: &qclab_core::Simulation, v: &CVec) -> f64 {
    let mut worst: f64 = 1.0;
    for b in sim.branches() {
        // expected full state: α|000,anc> + β|111,anc>
        let state = b.state();
        // contract the ancillas with their measured values
        let red = qclab_core::reduced_statevector(state, &[3, 4], b.result())
            .expect("ancillas must be collapsed");
        // red is the 3-qubit data state; expected α|000> + β|111>
        let mut expected = CVec::zeros(8);
        expected[0] = v[0];
        expected[7] = v[1];
        let f = red.fidelity(&expected);
        worst = worst.min(f);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_math::scalar::{c, cr};

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn paper_v() -> CVec {
        CVec(vec![cr(INV_SQRT2), c(0.0, INV_SQRT2)])
    }

    #[test]
    fn paper_example_syndrome_is_11() {
        // bit flip on q0: both ancillas fire
        let sim = protect(&bit_flip_circuit(InjectedError::BitFlip(0)), &paper_v()).unwrap();
        assert_eq!(sim.results(), &["11"]);
        assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn syndromes_identify_each_error_location() {
        // ancilla 3 = q0⊕q1, ancilla 4 = q0⊕q2
        let cases = [
            (InjectedError::None, "00"),
            (InjectedError::BitFlip(0), "11"),
            (InjectedError::BitFlip(1), "10"),
            (InjectedError::BitFlip(2), "01"),
        ];
        for (error, syndrome) in cases {
            let sim = protect(&bit_flip_circuit(error), &paper_v()).unwrap();
            assert_eq!(sim.results(), &[syndrome], "wrong syndrome for {error:?}");
        }
    }

    #[test]
    fn bit_flip_code_restores_the_logical_state() {
        for error in [
            InjectedError::None,
            InjectedError::BitFlip(0),
            InjectedError::BitFlip(1),
            InjectedError::BitFlip(2),
        ] {
            let sim = protect(&bit_flip_circuit(error), &paper_v()).unwrap();
            let f = logical_fidelity(&sim, &paper_v());
            assert!(f > 1.0 - 1e-10, "fidelity {f} after {error:?}");
        }
    }

    #[test]
    fn bit_flip_code_does_not_correct_phase_errors() {
        let sim = protect(&bit_flip_circuit(InjectedError::PhaseFlip(0)), &paper_v()).unwrap();
        let f = logical_fidelity(&sim, &paper_v());
        assert!(f < 1.0 - 1e-3, "phase error should not be correctable");
    }

    #[test]
    fn phase_flip_code_corrects_phase_errors() {
        for q in 0..3 {
            let sim =
                protect(&phase_flip_circuit(InjectedError::PhaseFlip(q)), &paper_v()).unwrap();
            let f = logical_fidelity(&sim, &paper_v());
            assert!(f > 1.0 - 1e-10, "fidelity {f} after Z on q{q}");
        }
    }

    #[test]
    fn ancilla_reuse_produces_same_syndromes() {
        let cases = [
            (InjectedError::None, "00"),
            (InjectedError::BitFlip(0), "11"),
            (InjectedError::BitFlip(1), "10"),
            (InjectedError::BitFlip(2), "01"),
        ];
        for (error, syndrome) in cases {
            let sim = protect(&bit_flip_circuit_ancilla_reuse(error), &paper_v()).unwrap();
            assert_eq!(sim.results(), &[syndrome], "wrong syndrome for {error:?}");
            assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pauli_frame_correction_restores_state() {
        for error in [
            InjectedError::None,
            InjectedError::BitFlip(0),
            InjectedError::BitFlip(1),
            InjectedError::BitFlip(2),
        ] {
            let sim = protect(&bit_flip_circuit_ancilla_reuse(error), &paper_v()).unwrap();
            let corrected = correct_by_pauli_frame(&sim);
            for (syndrome, state) in corrected {
                // expected: (α|000> + β|111>) ⊗ |0 or syndrome-bit ancilla>
                // the ancilla holds the *second* syndrome bit after its
                // final measurement
                let anc_bit = syndrome.chars().nth(1).unwrap().to_digit(10).unwrap() as usize;
                let mut expected = CVec::zeros(16);
                expected[anc_bit] = paper_v()[0]; // |000,anc>
                expected[0b1110 | anc_bit] = paper_v()[1]; // |111,anc>
                let f = state.fidelity(&expected);
                assert!(
                    f > 1.0 - 1e-10,
                    "Pauli-frame correction failed for {error:?} (fidelity {f})"
                );
            }
        }
    }

    #[test]
    fn ancilla_reuse_does_not_split_on_reset() {
        // reset follows a measurement, so the ancilla is deterministic
        // and no spurious branches appear
        let sim = protect(
            &bit_flip_circuit_ancilla_reuse(InjectedError::BitFlip(0)),
            &paper_v(),
        )
        .unwrap();
        assert_eq!(sim.branches().len(), 1);
    }

    #[test]
    fn shor_code_identity_when_no_error() {
        let f = shor_code_fidelity(&paper_v(), None);
        assert!(f > 1.0 - 1e-10, "fidelity {f} without error");
    }

    #[test]
    fn shor_code_corrects_all_bit_flips() {
        for q in 0..9 {
            let f = shor_code_fidelity(&paper_v(), Some(PauliError::X(q)));
            assert!(f > 1.0 - 1e-10, "X on q{q}: fidelity {f}");
        }
    }

    #[test]
    fn shor_code_corrects_phase_flips() {
        // one per block is enough to cover all three phase syndromes;
        // within a block all Z errors act identically on the code space
        for q in [0usize, 4, 8] {
            let f = shor_code_fidelity(&paper_v(), Some(PauliError::Z(q)));
            assert!(f > 1.0 - 1e-10, "Z on q{q}: fidelity {f}");
        }
    }

    #[test]
    fn shor_code_corrects_y_errors() {
        // Y = iXZ exercises both correction layers at once
        for q in [0usize, 5] {
            let f = shor_code_fidelity(&paper_v(), Some(PauliError::Y(q)));
            assert!(f > 1.0 - 1e-10, "Y on q{q}: fidelity {f}");
        }
    }

    #[test]
    fn memory_experiment_matches_analytic_formula() {
        // for |v> with <v|X|v> = 0, bare fidelity is exactly 1 - p and
        // protected fidelity is exactly 1 - 3p² + 2p³
        for p in [0.0, 0.02, 0.1, 0.25, 0.4] {
            let (bare, protected) = memory_error_experiment(p, &paper_v());
            assert!((bare - (1.0 - p)).abs() < 1e-10, "bare at p = {p}");
            let analytic = 1.0 - 3.0 * p * p + 2.0 * p * p * p;
            assert!(
                (protected - analytic).abs() < 1e-10,
                "protected {protected} vs analytic {analytic} at p = {p}"
            );
        }
    }

    #[test]
    fn code_beats_bare_qubit_below_half() {
        for p in [0.01, 0.1, 0.3, 0.49] {
            let (bare, protected) = memory_error_experiment(p, &paper_v());
            assert!(protected > bare, "no QEC gain at p = {p}");
        }
        // well below it the gain is ~1/(3p): over 10x at p = 0.01
        let (bare, protected) = memory_error_experiment(0.01, &paper_v());
        assert!(1.0 - protected < (1.0 - bare) / 10.0);
        // and loses above the pseudo-threshold p = 1/2
        let (bare, protected) = memory_error_experiment(0.6, &paper_v());
        assert!(protected < bare);
    }

    #[test]
    fn majority_decoder_votes_correctly() {
        assert_eq!(majority_decode("000"), 0);
        assert_eq!(majority_decode("010"), 0);
        assert_eq!(majority_decode("110"), 1);
        assert_eq!(majority_decode("11011"), 1);
        assert_eq!(majority_decode("10010"), 0);
    }

    #[test]
    fn repetition_code_corrects_single_injected_flip() {
        // a lone deterministic X is always outvoted at any distance
        for d in [3usize, 5] {
            for q in 0..d {
                let c = repetition_code_circuit(d, InjectedError::BitFlip(q));
                let sim = c.simulate(&CVec::basis_state(1 << d, 0)).unwrap();
                assert_eq!(sim.results().len(), 1);
                assert_eq!(majority_decode(sim.results()[0]), 0, "d={d}, flip on q{q}");
            }
        }
    }

    #[test]
    fn logical_error_rate_is_zero_without_noise() {
        let rate = logical_error_rate(3, 0.0, 200, 7).unwrap();
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn logical_error_rate_falls_with_distance() {
        // p = 0.1: analytic rates are 0.1 (bare), 0.028 (d=3), 0.00856
        // (d=5) — the gaps dwarf the 4000-shot sampling error
        let p = 0.1;
        let r3 = logical_error_rate(3, p, 4000, 11).unwrap();
        let r5 = logical_error_rate(5, p, 4000, 11).unwrap();
        assert!(r3 < p, "d=3 rate {r3} should beat the bare error rate {p}");
        assert!(r5 < r3, "d=5 rate {r5} should beat d=3 rate {r3}");
    }

    #[test]
    fn logical_error_rate_matches_analytic_formula() {
        let (d, p) = (3, 0.2);
        let rate = logical_error_rate(d, p, 8000, 3).unwrap();
        let analytic = analytic_logical_error_rate(d, p);
        assert!((analytic - 0.104).abs() < 1e-12, "analytic formula sanity");
        assert!(
            (rate - analytic).abs() < 0.015,
            "sampled {rate} vs analytic {analytic}"
        );
    }

    #[test]
    fn logical_error_rate_is_deterministic_in_the_seed() {
        let a = logical_error_rate(3, 0.15, 500, 42).unwrap();
        let b = logical_error_rate(3, 0.15, 500, 42).unwrap();
        let c = logical_error_rate(3, 0.15, 500, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should sample different noise");
    }

    #[test]
    fn protects_arbitrary_superpositions() {
        let mut v = CVec(vec![c(0.6, 0.1), c(-0.3, 0.74)]);
        v.normalize();
        let sim = protect(&bit_flip_circuit(InjectedError::BitFlip(1)), &v).unwrap();
        assert!(logical_fidelity(&sim, &v) > 1.0 - 1e-10);
    }
}
