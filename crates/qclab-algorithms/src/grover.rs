//! Grover's search algorithm (paper Sec. 5.3), generalized to `n` qubits.
//!
//! The paper builds the 2-qubit instance searching for `|11>` from an
//! oracle block and a diffuser block. This module constructs the same
//! modular circuit for any register size and marked bitstring, using the
//! paper's `asBlock` feature so the top-level circuit draws as
//! `H — oracle — diffuser — M`.

use qclab_core::prelude::*;
use qclab_math::bits;

/// Oracle flipping the phase of the marked basis state `|marked>`.
///
/// Implemented as a multi-controlled Z whose control states spell the
/// marked bits (open controls for zeros); for the paper's `|11>` this is
/// exactly the single `CZ(0, 1)`.
pub fn grover_oracle(nb_qubits: usize, marked: &str) -> QCircuit {
    assert_eq!(marked.len(), nb_qubits, "marked bitstring length mismatch");
    let bits: Vec<u8> = marked
        .chars()
        .map(|c| match c {
            '0' => 0u8,
            '1' => 1,
            other => panic!("invalid marked bit '{other}'"),
        })
        .collect();

    let mut oracle = QCircuit::new(nb_qubits);
    let target = nb_qubits - 1;

    if nb_qubits == 1 {
        // phase flip of |b> on one qubit
        if bits[0] == 1 {
            oracle.push_back(PauliZ::new(0));
        } else {
            oracle.push_back(PauliX::new(0));
            oracle.push_back(PauliZ::new(0));
            oracle.push_back(PauliX::new(0));
        }
        oracle.as_block("oracle");
        return oracle;
    }

    // Z on the target only acts on |1>; if the marked target bit is 0,
    // conjugate the target with X
    let flip_target = bits[target] == 0;
    if flip_target {
        oracle.push_back(PauliX::new(target));
    }
    let controls: Vec<usize> = (0..target).collect();
    let states: Vec<u8> = bits[..target].to_vec();
    oracle.push_back(MCZ::new(&controls, target, &states));
    if flip_target {
        oracle.push_back(PauliX::new(target));
    }
    oracle.as_block("oracle");
    oracle
}

/// The diffuser (inversion about the mean): `H^n X^n MCZ X^n H^n`.
///
/// For two qubits this is unitarily identical to the paper's
/// `H Z Z CZ H` construction (they differ by a global phase only).
pub fn grover_diffuser(nb_qubits: usize) -> QCircuit {
    let mut diffuser = QCircuit::new(nb_qubits);
    for q in 0..nb_qubits {
        diffuser.push_back(Hadamard::new(q));
    }
    for q in 0..nb_qubits {
        diffuser.push_back(PauliX::new(q));
    }
    if nb_qubits == 1 {
        diffuser.push_back(PauliZ::new(0));
    } else {
        let controls: Vec<usize> = (0..nb_qubits - 1).collect();
        let states = vec![1u8; controls.len()];
        diffuser.push_back(MCZ::new(&controls, nb_qubits - 1, &states));
    }
    for q in 0..nb_qubits {
        diffuser.push_back(PauliX::new(q));
    }
    for q in 0..nb_qubits {
        diffuser.push_back(Hadamard::new(q));
    }
    diffuser.as_block("diffuser");
    diffuser
}

/// The paper's exact 2-qubit diffuser (`H Z Z CZ H` form) for comparison
/// and for reproducing the listing verbatim.
pub fn paper_diffuser_2q() -> QCircuit {
    let mut diffuser = QCircuit::new(2);
    diffuser.push_back(Hadamard::new(0));
    diffuser.push_back(Hadamard::new(1));
    diffuser.push_back(PauliZ::new(0));
    diffuser.push_back(PauliZ::new(1));
    diffuser.push_back(CZ::new(0, 1));
    diffuser.push_back(Hadamard::new(0));
    diffuser.push_back(Hadamard::new(1));
    diffuser.as_block("diffuser");
    diffuser
}

/// Oracle flipping the phase of **several** marked states at once (one
/// multi-controlled Z per marked string).
pub fn grover_oracle_multi(nb_qubits: usize, marked: &[&str]) -> QCircuit {
    let mut oracle = QCircuit::new(nb_qubits);
    for m in marked {
        let mut single = grover_oracle(nb_qubits, m);
        single.un_block();
        for item in single.items() {
            oracle.push_back(item.clone());
        }
    }
    oracle.as_block("oracle");
    oracle
}

/// Success probability of measuring **any** marked state after
/// `iterations` rounds with the multi-marked oracle.
pub fn success_probability_multi(
    nb_qubits: usize,
    marked: &[&str],
    iterations: usize,
) -> Result<f64, QclabError> {
    let oracle = grover_oracle_multi(nb_qubits, marked);
    let diffuser = grover_diffuser(nb_qubits);
    let mut gc = QCircuit::new(nb_qubits);
    for q in 0..nb_qubits {
        gc.push_back(Hadamard::new(q));
    }
    for _ in 0..iterations {
        gc.push_back(oracle.clone());
        gc.push_back(diffuser.clone());
    }
    let sim = gc.simulate_bitstring(&"0".repeat(nb_qubits))?;
    let state = sim.states()[0];
    let mut p = 0.0;
    for m in marked {
        let idx = bits::bitstring_to_index(m)
            .ok_or_else(|| QclabError::InvalidBitstring(m.to_string()))?;
        p += state[idx].norm_sqr();
    }
    Ok(p)
}

/// The optimal iteration count `⌊π/4 · √(2^n)⌋` (at least 1).
pub fn optimal_iterations(nb_qubits: usize) -> usize {
    let n = (1usize << nb_qubits) as f64;
    ((std::f64::consts::FRAC_PI_4 * n.sqrt()).floor() as usize).max(1)
}

/// Builds the full Grover circuit: `H^n (oracle diffuser)^k` plus final
/// measurements on every qubit.
pub fn grover_circuit(nb_qubits: usize, marked: &str, iterations: usize) -> QCircuit {
    let oracle = grover_oracle(nb_qubits, marked);
    let diffuser = grover_diffuser(nb_qubits);
    let mut gc = QCircuit::new(nb_qubits);
    for q in 0..nb_qubits {
        gc.push_back(Hadamard::new(q));
    }
    for _ in 0..iterations {
        gc.push_back(oracle.clone());
        gc.push_back(diffuser.clone());
    }
    for q in 0..nb_qubits {
        gc.push_back(Measurement::z(q));
    }
    gc
}

/// Success probability of measuring the marked state after `iterations`
/// Grover rounds (no measurement sampling — exact from the state vector).
pub fn success_probability(
    nb_qubits: usize,
    marked: &str,
    iterations: usize,
) -> Result<f64, QclabError> {
    let oracle = grover_oracle(nb_qubits, marked);
    let diffuser = grover_diffuser(nb_qubits);
    let mut gc = QCircuit::new(nb_qubits);
    for q in 0..nb_qubits {
        gc.push_back(Hadamard::new(q));
    }
    for _ in 0..iterations {
        gc.push_back(oracle.clone());
        gc.push_back(diffuser.clone());
    }
    let zeros = "0".repeat(nb_qubits);
    let sim = gc.simulate_bitstring(&zeros)?;
    let state = sim.states()[0];
    let idx = bits::bitstring_to_index(marked)
        .ok_or_else(|| QclabError::InvalidBitstring(marked.to_string()))?;
    Ok(state[idx].norm_sqr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_two_qubit_search_succeeds_with_certainty() {
        // paper Sec. 5.3: one iteration finds '11' with probability 1
        let gc = grover_circuit(2, "11", 1);
        let sim = gc.simulate_bitstring("00").unwrap();
        assert_eq!(sim.results(), &["11"]);
        assert!((sim.probabilities()[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn paper_oracle_is_a_single_cz() {
        let oracle = grover_oracle(2, "11");
        assert_eq!(oracle.nb_gates(), 1);
        // phase flip exactly on |11>
        let m = oracle.to_matrix().unwrap();
        for i in 0..4 {
            let expect = if i == 3 { -1.0 } else { 1.0 };
            assert!((m[(i, i)].re - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn generic_oracle_flips_only_the_marked_state() {
        for marked in ["00", "01", "10", "000", "101", "110"] {
            let n = marked.len();
            let oracle = grover_oracle(n, marked);
            let m = oracle.to_matrix().unwrap();
            let idx = bits::bitstring_to_index(marked).unwrap();
            for i in 0..(1 << n) {
                let expect = if i == idx { -1.0 } else { 1.0 };
                assert!(
                    (m[(i, i)].re - expect).abs() < 1e-12,
                    "oracle for {marked} wrong at diagonal {i}"
                );
            }
        }
    }

    #[test]
    fn diffuser_matches_paper_construction_up_to_phase() {
        let ours = grover_diffuser(2).to_matrix().unwrap();
        let paper = paper_diffuser_2q().to_matrix().unwrap();
        // equal up to global phase
        let ratio = paper[(0, 0)] / ours[(0, 0)];
        assert!((ratio.norm() - 1.0).abs() < 1e-12);
        assert!(ours.scale(ratio).approx_eq(&paper, 1e-12));
    }

    #[test]
    fn three_qubit_search_peaks_at_optimal_iterations() {
        let k = optimal_iterations(3); // = 2
        assert_eq!(k, 2);
        let p = success_probability(3, "101", k).unwrap();
        assert!(p > 0.9, "3-qubit success prob {p} too low");
        // and one extra iteration overshoots
        let p_over = success_probability(3, "101", k + 2).unwrap();
        assert!(p_over < p);
    }

    #[test]
    fn success_probability_grows_then_oscillates() {
        let p1 = success_probability(4, "1011", 1).unwrap();
        let p3 = success_probability(4, "1011", 3).unwrap();
        assert!(p3 > p1);
        let k = optimal_iterations(4);
        let pk = success_probability(4, "1011", k).unwrap();
        assert!(pk > 0.9);
    }

    #[test]
    fn multi_marked_search_follows_sin_law() {
        // M marked among N: success after k rounds is
        // sin²((2k+1)·asin(√(M/N)))
        let n = 5;
        let marked = ["00000", "10101", "11111", "01010"];
        let m = marked.len() as f64;
        let nn = (1u64 << n) as f64;
        let theta = (m / nn).sqrt().asin();
        for k in [1usize, 2, 3] {
            let p = success_probability_multi(n, &marked, k).unwrap();
            let analytic = ((2 * k + 1) as f64 * theta).sin().powi(2);
            assert!(
                (p - analytic).abs() < 1e-9,
                "k = {k}: simulated {p}, analytic {analytic}"
            );
        }
        // M = 1 through the single-marked oracle, past the peak at k = 6
        let theta = (1.0 / 64f64).sqrt().asin();
        for k in [1usize, 3, 6, 8] {
            let p = success_probability(6, "111111", k).unwrap();
            let analytic = ((2 * k + 1) as f64 * theta).sin().powi(2);
            assert!(
                (p - analytic).abs() < 1e-9,
                "n = 6, k = {k}: simulated {p}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn multi_marked_optimal_iterations() {
        // M = 4 of N = 32: k_opt = floor(pi/4 * sqrt(N/M)) = 2
        let n = 5;
        let marked = ["00001", "00111", "11100", "10000"];
        let p = success_probability_multi(n, &marked, 2).unwrap();
        assert!(p > 0.9, "multi-marked search too weak: {p}");
    }

    #[test]
    fn single_qubit_grover_degenerate_case() {
        // N = 2: sin²((2k+1)·π/4) with k = 1 gives exactly 1/2 — Grover
        // offers no advantage on a single qubit
        let p = success_probability(1, "1", 1).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }
}
