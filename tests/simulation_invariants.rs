//! Property tests on the measurement/branching machinery: probabilities
//! form a distribution, collapse is idempotent, counts are consistent,
//! and reduced states match partial traces.

mod common;

use common::{circuit, state};
use qclab::prelude::*;
use qclab_testkit::prelude::*;

const N: usize = 3;

/// Appends measurements on `k` qubits to a copy of the circuit.
fn with_measurements(c: &QCircuit, k: usize) -> QCircuit {
    let mut out = c.clone();
    for q in 0..k {
        out.push_back(Measurement::z(q));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(48)))]

    /// Branch probabilities sum to one and every branch state is a unit
    /// vector supported on its observed outcome.
    #[test]
    fn branch_probabilities_form_distribution(
        c in circuit(N, 10),
        init in state(N),
        k in 1usize..=N,
    ) {
        let sim = with_measurements(&c, k).simulate(&init).unwrap();
        let total: f64 = sim.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
        for b in sim.branches() {
            prop_assert!((b.state().norm() - 1.0).abs() < 1e-9);
            prop_assert_eq!(b.result().len(), k);
            // measuring the same qubits again must reproduce the result
            // deterministically
            for (pos, ch) in b.result().chars().enumerate() {
                let bit = ch.to_digit(10).unwrap() as usize;
                let p = b.state().qubit_probability(pos, bit);
                prop_assert!((p - 1.0).abs() < 1e-9, "collapse not idempotent");
            }
        }
    }

    /// Branch results are unique and sorted lexicographically (by
    /// construction of the splitting order).
    #[test]
    fn branch_results_are_unique(c in circuit(N, 8), init in state(N)) {
        let sim = with_measurements(&c, N).simulate(&init).unwrap();
        let results = sim.results();
        let mut sorted = results.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), results.len(), "duplicate branch results");
    }

    /// Sampled counts always sum to the number of shots and only contain
    /// observed outcomes.
    #[test]
    fn counts_sum_to_shots(c in circuit(N, 8), init in state(N), seed in any::<u64>()) {
        let sim = with_measurements(&c, N).simulate(&init).unwrap();
        let counts = sim.counts(500, seed);
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(total, 500);
        let results = sim.results();
        for (outcome, _) in &counts {
            prop_assert!(results.contains(&outcome.as_str()));
        }
    }

    /// Measurement statistics match the state's Born probabilities.
    #[test]
    fn measurement_matches_born_rule(c in circuit(N, 10), init in state(N)) {
        // simulate without measurement to get the pre-measurement state
        let pre = c.simulate(&init).unwrap();
        let pre_state = pre.states()[0].clone();
        // then measure qubit 0
        let mut mc = c.clone();
        mc.push_back(Measurement::z(0));
        let sim = mc.simulate(&init).unwrap();
        let p0_expected = pre_state.qubit_probability(0, 0);
        let p0_observed: f64 = sim
            .branches()
            .iter()
            .filter(|b| b.result() == "0")
            .map(|b| b.probability())
            .sum();
        prop_assert!((p0_observed - p0_expected).abs() < 1e-9);
    }

    /// For product-preserving circuits, the reduced state from the
    /// simulation equals the partial-trace reduction of the branch state.
    #[test]
    fn reduced_states_match_partial_trace(c in circuit(N, 8), init in state(N)) {
        let mut mc = c.clone();
        mc.push_back(Measurement::z(0));
        let sim = mc.simulate(&init).unwrap();
        if let Ok(reduced) = sim.reduced_states() {
            for (b, r) in sim.branches().iter().zip(&reduced) {
                let rho = DensityMatrix::from_pure(b.state());
                let keep: Vec<usize> = (1..N).collect();
                let red_rho = rho.partial_trace_keep(&keep);
                // fidelity of the claimed pure reduced state with the
                // partial trace must be 1
                let f = red_rho.fidelity_with_pure(r);
                prop_assert!((f - 1.0).abs() < 1e-8, "fidelity {f}");
            }
        }
    }
}

#[test]
fn deterministic_chain_of_measurements() {
    // measure the same qubit repeatedly: one extra branch never appears
    let mut c = QCircuit::new(2);
    c.push_back(Hadamard::new(0));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(0));
    let sim = c.simulate_bitstring("00").unwrap();
    assert_eq!(sim.results(), &["000", "111"]);
}
