//! The dense state must be **bit-identical at any number of threads**.
//!
//! Above `PARALLEL_THRESHOLD_QUBITS` every kernel runs as the serial
//! kernel on disjoint parts of the register (`sim::kernel`'s `split`):
//! which groups a thread gets depends on the thread count, what is
//! computed for a group does not. So for every kernel class — with the
//! vector kernels on and off — the state under
//! `ThreadPool::install(num_threads(t))` must be `==` for t = 1..4,
//! including thread counts that do not divide the register evenly and
//! gates on the top qubit, whose group range is what gets divided.

use qclab::prelude::*;
use qclab_core::sim::kernel::{self, KernelConfig, PARALLEL_THRESHOLD_QUBITS};
use qclab_math::scalar::c;
use qclab_math::CVec;

fn random_state(n: usize, seed: u64) -> CVec {
    // tiny deterministic LCG; the kernels are linear, normalization is moot
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as f64) / (1u64 << 31) as f64 - 1.0
    };
    CVec((0..1usize << n).map(|_| c(next(), next())).collect())
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool always builds")
        .install(f)
}

fn assert_same_bits(a: &CVec, b: &CVec, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i} diverged: {x:?} vs {y:?}"
        );
    }
}

/// A dense unitary on `qubits` (the shape the fusion pass emits): the
/// matrix of a small entangling circuit, as a custom gate.
fn fused(qubits: &[usize]) -> Gate {
    let k = qubits.len();
    let mut block = QCircuit::new(k);
    for q in 0..k {
        block.push_back(RotationY::new(q, 0.3 + 0.7 * q as f64));
        block.push_back(RotationZ::new(q, 1.1 - 0.4 * q as f64));
    }
    for q in 1..k {
        block.push_back(CNOT::new(q - 1, q));
        block.push_back(RotationX::new(q, 0.9 * q as f64));
    }
    CustomGate::new("F", qubits, block.to_matrix().unwrap()).unwrap()
}

/// One gate or more per kernel class; qubit 0 is the top index bit,
/// qubit `n - 1` the least significant one.
fn kernel_classes(n: usize) -> Vec<(&'static str, Gate)> {
    let (top, lsb) = (0, n - 1);
    vec![
        ("1q dense, top qubit", RotationX::new(top, 0.7)),
        ("1q dense, lsb", RotationX::new(lsb, 1.3)),
        ("1q dense, middle", Hadamard::new(n / 2)),
        ("controlled 1q, top target", CNOT::new(lsb, top)),
        ("controlled 1q, top control", CNOT::new(top, lsb)),
        ("controlled 1q, low pair", CRY::new(n - 3, n - 5, 2.2)),
        (
            "controlled 1q, two controls",
            MCX::new(&[top, lsb], 3, &[1, 0]),
        ),
        (
            "controlled 1q, top target two controls",
            Toffoli::new(n - 2, 1, top),
        ),
        ("diagonal 1q, top qubit", RotationZ::new(top, 0.4)),
        ("diagonal 1q, lsb", RotationZ::new(lsb, 0.9)),
        ("diagonal 1q, unit entry", TGate::new(4)),
        ("diagonal 2q, top and lsb", RotationZZ::new(top, lsb, 1.1)),
        ("diagonal 2q, top pair", RotationZZ::new(1, top, 0.6)),
        ("diagonal 2q, middle", RotationZZ::new(6, 9, 0.8)),
        (
            "controlled diagonal 1q, top target",
            CPhase::new(lsb, top, 0.5),
        ),
        ("controlled diagonal 1q, top control", CZ::new(top, lsb)),
        ("controlled diagonal 1q, middle", CRZ::new(3, 1, 1.7)),
        (
            "controlled diagonal 2q, top target",
            CU::new(2, RotationZZ::new(top, lsb, 0.3)),
        ),
        (
            "controlled diagonal 2q, top control",
            CU::new(top, RotationZZ::new(5, 6, 1.9)),
        ),
        ("swap, top and lsb", SwapGate::new(top, lsb)),
        ("swap, top pair", SwapGate::new(top, 1)),
        ("swap, low pair", SwapGate::new(n - 2, lsb)),
        ("swap, middle", SwapGate::new(3, 10)),
        ("2q dense, top pair", ISwapGate::new(top, 1)),
        ("2q dense, top and lsb", RotationXX::new(top, lsb, 0.7)),
        ("2q dense, lsb first", RotationXX::new(lsb, 4, 1.2)),
        ("2q dense, middle", fused(&[9, 5])),
        ("fused 3q, top qubit", fused(&[top, 5, 9])),
        ("fused 3q, middle", fused(&[7, 2, 11])),
        ("fused 3q, lsb (scalar gather)", fused(&[3, lsb, 8])),
        ("fused 4q, top qubits", fused(&[top, 1, 2, 3])),
        ("fused 4q, spread", fused(&[4, 9, 12, 15])),
        ("controlled 2q dense", CU::new(1, ISwapGate::new(top, 7))),
        (
            "controlled 3q dense, top control",
            CU::new(top, fused(&[6, 2, 13])),
        ),
    ]
}

#[test]
fn every_kernel_class_is_bit_identical_at_any_thread_count() {
    for n in [PARALLEL_THRESHOLD_QUBITS, PARALLEL_THRESHOLD_QUBITS + 1] {
        let initial = random_state(n, 17 + n as u64);
        for simd in [true, false] {
            let cfg = KernelConfig {
                allow_simd: simd,
                ..KernelConfig::default()
            };
            for (class, gate) in kernel_classes(n) {
                let run = |threads| {
                    let mut state = initial.clone();
                    with_threads(threads, || {
                        kernel::apply_gate_with(&gate, &mut state, n, &cfg)
                    });
                    state
                };
                let one = run(1);
                for threads in 2..=4 {
                    let what = format!("{class} (n = {n}, simd = {simd}, {threads} threads)");
                    assert_same_bits(&run(threads), &one, &what);
                }
            }
        }
    }
}

#[test]
fn permutations_are_bit_identical_at_any_thread_count() {
    let n = PARALLEL_THRESHOLD_QUBITS;
    let initial = random_state(n, 5);
    // a five-cycle through the top and least significant qubits (general
    // gather path) and a single transposition (pair-exchange path)
    let mut cycle: Vec<usize> = (0..n).collect();
    for (from, to) in [(0, 7), (7, n - 1), (n - 1, 3), (3, 12), (12, 0)] {
        cycle[from] = to;
    }
    let mut transposition: Vec<usize> = (0..n).collect();
    transposition.swap(0, n - 1);
    for perm in [cycle, transposition] {
        let run = |threads| {
            let mut state = initial.clone();
            with_threads(threads, || {
                kernel::permute_state(&mut state, n, &perm, true)
            });
            state
        };
        let one = run(1);
        for threads in 2..=4 {
            assert_same_bits(
                &run(threads),
                &one,
                &format!("permute {perm:?}, {threads} threads"),
            );
        }
    }
}

/// A whole compiled program — fusion, the locality pass's permutations,
/// cache-blocked windows on the low qubits, full-register gates on the
/// high ones — through the bytecode executor.
#[test]
fn compiled_programs_with_windows_are_bit_identical_at_any_thread_count() {
    let n = PARALLEL_THRESHOLD_QUBITS;
    let mut circuit = QCircuit::new(n);
    for layer in 0..3 {
        for q in 0..n {
            circuit.push_back(RotationY::new(q, 0.2 + 0.1 * (layer * n + q) as f64));
        }
        // tile-resident chain: consecutive sweepable gates form windows
        for q in n - 10..n - 1 {
            circuit.push_back(CNOT::new(q, q + 1));
            circuit.push_back(RotationZ::new(q + 1, 0.05 * q as f64));
        }
        for q in 0..4 {
            circuit.push_back(CNOT::new(q, n - 1 - q));
            circuit.push_back(CZ::new(n - 2 - q, q));
        }
    }
    let initial = CVec::basis_state(1 << n, 0);
    for simd in [true, false] {
        let opts = SimOptions {
            kernel: KernelConfig {
                allow_simd: simd,
                ..KernelConfig::default()
            },
            ..SimOptions::default()
        };
        let run = |threads| {
            with_threads(threads, || circuit.simulate_with(&initial, &opts))
                .unwrap()
                .states()[0]
                .clone()
        };
        let one = run(1);
        for threads in 2..=4 {
            let what = format!("simd = {simd}, {threads} threads");
            assert_same_bits(&run(threads), &one, &what);
        }
    }
}
