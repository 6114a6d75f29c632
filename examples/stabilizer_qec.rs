//! Stabilizer-backend QEC at scale: run many rounds of repetition-code
//! syndrome extraction on a register far beyond state-vector reach,
//! using the Aaronson–Gottesman tableau simulator.
//!
//! Run with `cargo run --release --example stabilizer_qec`.

use qclab::prelude::*;
use qclab_core::StabilizerState;
use qclab_math::rng::Rng;

fn main() {
    // 50 logical qubits, each a distance-3 repetition code with two
    // ancillas: 250 physical qubits in one tableau
    let logical = 50usize;
    let per_block = 5usize;
    let n = logical * per_block;
    let mut s = StabilizerState::new(n).expect("non-empty register");
    let mut rng = Rng::seed_from_u64(42);

    println!("{logical} logical qubits = {n} physical qubits in one tableau\n");

    // encode every logical qubit (|0>_L here; Clifford circuits only)
    for b in 0..logical {
        let d = b * per_block;
        s.apply_gate(&CNOT::new(d, d + 1)).unwrap();
        s.apply_gate(&CNOT::new(d, d + 2)).unwrap();
    }

    // inject random X errors with probability 0.2 per logical block
    let mut injected = Vec::new();
    for b in 0..logical {
        if rng.f64() < 0.2 {
            let q = b * per_block + rng.below(3);
            s.apply_gate(&PauliX::new(q)).unwrap();
            injected.push((b, q % per_block));
        }
    }
    println!(
        "injected X errors in {} of {logical} blocks",
        injected.len()
    );

    // syndrome extraction + decoding per block
    let mut detected = Vec::new();
    for b in 0..logical {
        let d = b * per_block;
        let (a1, a2) = (d + 3, d + 4);
        s.apply_gate(&CNOT::new(d, a1)).unwrap();
        s.apply_gate(&CNOT::new(d + 1, a1)).unwrap();
        s.apply_gate(&CNOT::new(d, a2)).unwrap();
        s.apply_gate(&CNOT::new(d + 2, a2)).unwrap();
        let m1 = s.measure(a1, &mut rng);
        let m2 = s.measure(a2, &mut rng);
        assert!(!m1.random && !m2.random, "syndromes are deterministic");
        let flipped = match (m1.bit, m2.bit) {
            (true, true) => Some(0),
            (true, false) => Some(1),
            (false, true) => Some(2),
            (false, false) => None,
        };
        if let Some(q) = flipped {
            // Pauli-frame correction
            s.apply_gate(&PauliX::new(d + q)).unwrap();
            detected.push((b, q));
        }
    }

    println!("decoded  X errors in {} blocks", detected.len());
    assert_eq!(injected, detected, "decoder missed or misplaced an error");

    // verify every data qubit is back in |0>
    for b in 0..logical {
        for q in 0..3 {
            let m = s.measure(b * per_block + q, &mut rng);
            assert!(!m.random && !m.bit, "residual error at block {b}");
        }
    }
    println!("\nall {logical} logical qubits verified error-free ✓");
    println!("(a state-vector simulation of {n} qubits would need 2^{n} amplitudes)");
}
