#![allow(dead_code)] // each test binary uses a different subset

//! Shared proptest strategies for the integration test suite: random
//! gates, random circuits, and random normalized state vectors — and
//! the one distribution check the statistical legs assert.

use proptest::prelude::*;
use qclab::prelude::*;
use qclab_math::scalar::c;
use std::collections::BTreeMap;

/// Cases per property: `QCLAB_PROPTEST_CASES` when set (the hardened CI
/// job raises it), else the file's own `default`.
pub fn fuzz_cases(default: u32) -> u32 {
    std::env::var("QCLAB_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Strategy over angles in (-2π, 2π).
pub fn angle() -> impl Strategy<Value = f64> {
    -std::f64::consts::TAU..std::f64::consts::TAU
}

/// Strategy over a random gate on a register of `n` qubits (n >= 3).
pub fn gate(n: usize) -> impl Strategy<Value = Gate> {
    assert!(n >= 3, "gate strategy needs at least 3 qubits");
    let q = 0..n;
    // a pair of distinct qubits
    let qq = (0..n, 0..n - 1).prop_map(move |(a, b)| {
        let b = if b >= a { b + 1 } else { b };
        (a, b)
    });
    // a triple of distinct qubits
    let qqq = (0..n, 0..n - 1, 0..n - 2).prop_map(move |(a, b, cc)| {
        let b = if b >= a { b + 1 } else { b };
        let mut cc = cc;
        for low in [a.min(b), a.max(b)] {
            if cc >= low {
                cc += 1;
            }
        }
        (a, b, cc)
    });

    prop_oneof![
        q.clone().prop_map(Hadamard::new),
        q.clone().prop_map(PauliX::new),
        q.clone().prop_map(PauliY::new),
        q.clone().prop_map(PauliZ::new),
        q.clone().prop_map(SGate::new),
        q.clone().prop_map(TdgGate::new),
        q.clone().prop_map(SXGate::new),
        (q.clone(), angle()).prop_map(|(q, t)| RotationX::new(q, t)),
        (q.clone(), angle()).prop_map(|(q, t)| RotationY::new(q, t)),
        (q.clone(), angle()).prop_map(|(q, t)| RotationZ::new(q, t)),
        (q.clone(), angle()).prop_map(|(q, t)| PhaseGate::new(q, t)),
        (q.clone(), angle(), angle(), angle()).prop_map(|(q, a, b, cc)| U3Gate::new(q, a, b, cc)),
        qq.clone().prop_map(|(a, b)| SwapGate::new(a, b)),
        qq.clone().prop_map(|(a, b)| ISwapGate::new(a, b)),
        (qq.clone(), angle()).prop_map(|((a, b), t)| RotationZZ::new(a, b, t)),
        (qq.clone(), angle()).prop_map(|((a, b), t)| RotationXX::new(a, b, t)),
        qq.clone().prop_map(|(a, b)| CNOT::new(a, b)),
        qq.clone().prop_map(|(a, b)| CZ::new(a, b)),
        (qq.clone(), 0u8..2).prop_map(|((a, b), s)| CNOT::with_control_state(a, b, s)),
        (qq.clone(), angle()).prop_map(|((a, b), t)| CRY::new(a, b, t)),
        (qq, angle()).prop_map(|((a, b), t)| CPhase::new(a, b, t)),
        (qqq.clone(), 0u8..2, 0u8..2).prop_map(|((a, b, cc), s1, s2)| MCX::new(
            &[a, b],
            cc,
            &[s1, s2]
        )),
        qqq.prop_map(|(a, b, cc)| Toffoli::new(a, b, cc)),
    ]
}

/// Strategy over a unitary circuit of up to `max_gates` gates on `n`
/// qubits.
pub fn circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QCircuit> {
    prop::collection::vec(gate(n), 1..=max_gates).prop_map(move |gates| {
        let mut c = QCircuit::new(n);
        for g in gates {
            c.push_back(g);
        }
        c
    })
}

/// Strategy over a circuit of up to `max_items` items on `n` qubits that
/// mixes barriers, mid-circuit measurements (all three bases) and resets
/// in with the unitary gates — the full item vocabulary the simulator and
/// the fusion pre-pass must agree on. Gate arms are repeated so roughly
/// three quarters of the items are unitary.
pub fn measured_circuit(n: usize, max_items: usize) -> impl Strategy<Value = QCircuit> {
    let item = prop_oneof![
        gate(n).prop_map(CircuitItem::Gate),
        gate(n).prop_map(CircuitItem::Gate),
        gate(n).prop_map(CircuitItem::Gate),
        gate(n).prop_map(CircuitItem::Gate),
        gate(n).prop_map(CircuitItem::Gate),
        gate(n).prop_map(CircuitItem::Gate),
        (0..n).prop_map(|q| CircuitItem::Barrier(vec![q])),
        (0..n, 0u8..3).prop_map(|(q, b)| {
            CircuitItem::Measurement(match b {
                0 => Measurement::z(q),
                1 => Measurement::x(q),
                _ => Measurement::y(q),
            })
        }),
        (0..n).prop_map(CircuitItem::Reset),
    ];
    prop::collection::vec(item, 1..=max_items).prop_map(move |items| {
        let mut c = QCircuit::new(n);
        for it in items {
            c.push_back(it);
        }
        c
    })
}

/// Strategy over an `n`-qubit circuit with a nested 3-qubit sub-circuit
/// (random offset) spliced into the middle of two runs of `item`s: the
/// flattener must relabel through the offset before any lowering pass
/// sees the gates.
pub fn nested_circuit<S: Strategy<Value = CircuitItem>>(
    n: usize,
    item: impl Fn() -> S,
) -> impl Strategy<Value = QCircuit> {
    (
        prop::collection::vec(item(), 0..6),
        prop::collection::vec(gate(3), 1..6),
        0..n - 2,
        prop::collection::vec(item(), 0..6),
    )
        .prop_map(move |(before, inner_gates, offset, after)| {
            let mut inner = QCircuit::new(3);
            for g in inner_gates {
                inner.push_back(g);
            }
            let mut c = QCircuit::new(n);
            for it in before {
                c.push_back(it);
            }
            c.push_back(CircuitItem::SubCircuit {
                offset,
                circuit: inner,
            });
            for it in after {
                c.push_back(it);
            }
            c
        })
}

/// The oracle for the dense engine on unitary programs: walks
/// `program.ops()` one op at a time through the public per-gate kernel
/// entry — no bytecode, no windows, no prepared operands.
pub fn reference_state(program: &qclab_core::program::CompiledProgram, initial: &CVec) -> CVec {
    use qclab_core::program::ProgramOp;
    use qclab_core::sim::kernel::{apply_gate_with, permute_state, KernelConfig};
    let n = program.nb_qubits();
    let mut state = initial.clone();
    for op in program.ops() {
        match op {
            ProgramOp::Gate(g) => apply_gate_with(g, &mut state, n, &KernelConfig::default()),
            ProgramOp::Permute { perm, .. } => permute_state(&mut state, n, perm, false),
            ProgramOp::Fence(_) => {}
            ProgramOp::Measure(_) | ProgramOp::Reset(_) => {
                panic!("reference_state walks unitary programs only")
            }
        }
    }
    state
}

/// Strategy over a random Clifford gate on a register of `n` qubits
/// (n >= 2): the exact family the stabilizer tableau — and the
/// Pauli-frame sampler built on it — executes.
pub fn clifford_gate(n: usize) -> impl Strategy<Value = Gate> {
    assert!(n >= 2, "clifford gate strategy needs at least 2 qubits");
    let q = 0..n;
    let qq = (0..n, 0..n - 1).prop_map(move |(a, b)| {
        let b = if b >= a { b + 1 } else { b };
        (a, b)
    });
    prop_oneof![
        q.clone().prop_map(Hadamard::new),
        q.clone().prop_map(PauliX::new),
        q.clone().prop_map(PauliY::new),
        q.clone().prop_map(PauliZ::new),
        q.clone().prop_map(SGate::new),
        q.clone().prop_map(SdgGate::new),
        qq.clone().prop_map(|(a, b)| SwapGate::new(a, b)),
        qq.clone().prop_map(|(a, b)| CNOT::new(a, b)),
        qq.clone().prop_map(|(a, b)| CY::new(a, b)),
        qq.prop_map(|(a, b)| CZ::new(a, b)),
    ]
}

/// Strategy over a circuit of up to `max_items` items mixing Clifford
/// gates with barriers, mid-circuit measurements (all three bases) and
/// resets — the full vocabulary the Pauli-frame sampler must agree on.
pub fn clifford_measured_circuit(n: usize, max_items: usize) -> impl Strategy<Value = QCircuit> {
    let item = prop_oneof![
        clifford_gate(n).prop_map(CircuitItem::Gate),
        clifford_gate(n).prop_map(CircuitItem::Gate),
        clifford_gate(n).prop_map(CircuitItem::Gate),
        clifford_gate(n).prop_map(CircuitItem::Gate),
        (0..n).prop_map(|q| CircuitItem::Barrier(vec![q])),
        (0..n, 0u8..3).prop_map(|(q, b)| {
            CircuitItem::Measurement(match b {
                0 => Measurement::z(q),
                1 => Measurement::x(q),
                _ => Measurement::y(q),
            })
        }),
        (0..n).prop_map(CircuitItem::Reset),
    ];
    prop::collection::vec(item, 1..=max_items).prop_map(move |items| {
        let mut c = QCircuit::new(n);
        for it in items {
            c.push_back(it);
        }
        c
    })
}

/// Strategy over a normalized state vector on `n` qubits.
pub fn state(n: usize) -> impl Strategy<Value = CVec> {
    let dim = 1usize << n;
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), dim..=dim).prop_filter_map(
        "state must have nonzero norm",
        |parts| {
            let v = CVec(parts.into_iter().map(|(re, im)| c(re, im)).collect());
            if v.norm() < 1e-3 {
                None
            } else {
                Some(v.normalized())
            }
        },
    )
}

/// `layers` layers of pseudo-random rotations and a CNOT ladder on
/// qubits `0..width` of an `n`-qubit register (non-Clifford, so the
/// frame sampler stays out), from a fixed LCG.
pub fn random_layers(n: usize, width: usize, layers: usize, seed: u64) -> QCircuit {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut c = QCircuit::new(n);
    for layer in 0..layers {
        for q in 0..width {
            let angle = 0.2 + 2.5 * next();
            match (next() * 3.0) as usize {
                0 => c.push_back(RotationX::new(q, angle)),
                1 => c.push_back(RotationY::new(q, angle)),
                _ => c.push_back(RotationZ::new(q, angle)),
            };
        }
        for q in (layer % 2..width - 1).step_by(2) {
            c.push_back(CNOT::new(q, q + 1));
        }
    }
    c
}

/// What [`assert_distribution`] tests a sample against.
pub enum Expected<'a> {
    /// Exact probabilities per record.
    Exact(&'a BTreeMap<String, f64>),
    /// A second sample of the same size, drawn independently.
    Sample(&'a BTreeMap<String, u64>),
}

/// Asserts that `counts` follows `expected` by a chi-square test and
/// returns the degrees of freedom it kept. Against exact probabilities,
/// records expected fewer than 5 times are left out (the test's
/// applicability rule); against a second sample, records seen fewer
/// than 10 times in both together are pooled into one bin.
///
/// The statistic is compared with `dof + 5·√(2·dof) + 10`. For a correct
/// sampler that bound is exceeded with probability at most 2.2·10⁻⁵ per
/// call (at 1 dof; 1.4·10⁻⁶ at 100 dof), asymptotically in the shot
/// count. The suite makes about 70 calls at its default case counts, so
/// its family-wise false-alarm rate is at most 1.5·10⁻³ (union bound);
/// at `QCLAB_PROPTEST_CASES=8192` the frame differential alone makes 8192
/// calls, and the bound is 0.18. Every seed is fixed, so a verdict
/// repeats run to run: these rates are what a new seed or case count
/// risks, not a flake rate.
pub fn assert_distribution(
    counts: &BTreeMap<String, u64>,
    expected: Expected<'_>,
    what: &str,
) -> usize {
    let mut stat = 0.0;
    let mut bins = 0usize;
    match expected {
        Expected::Exact(probs) => {
            let draws: u64 = counts.values().sum();
            for (record, p) in probs {
                let expect = p * draws as f64;
                if expect < 5.0 {
                    continue;
                }
                let d = counts.get(record).copied().unwrap_or(0) as f64 - expect;
                stat += d * d / expect;
                bins += 1;
            }
        }
        Expected::Sample(other) => {
            let total = |s: &BTreeMap<String, u64>| s.values().sum::<u64>();
            assert_eq!(total(counts), total(other), "{what}: sample sizes differ");
            let records: std::collections::BTreeSet<&String> =
                counts.keys().chain(other.keys()).collect();
            let mut pooled = (0u64, 0u64);
            let mut add = |a: u64, b: u64| {
                let d = a as f64 - b as f64;
                stat += d * d / (a + b) as f64;
                bins += 1;
            };
            for record in records {
                let a = counts.get(record).copied().unwrap_or(0);
                let b = other.get(record).copied().unwrap_or(0);
                if a + b < 10 {
                    pooled = (pooled.0 + a, pooled.1 + b);
                } else {
                    add(a, b);
                }
            }
            if pooled.0 + pooled.1 >= 10 {
                add(pooled.0, pooled.1);
            }
        }
    }
    let dof = bins.saturating_sub(1);
    let bound = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt() + 10.0;
    assert!(
        stat <= bound,
        "{what}: chi-square {stat:.2} over {dof} dof exceeds {bound:.2}\n\
         sample: {counts:?}"
    );
    dof
}

/// Runs `f` with the engines' fan-out capped at `threads`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool always builds")
        .install(f)
}

/// Depolarizing gate noise, phase-flip idle noise and bit-flip readout
/// noise at the given probabilities.
pub fn all_noise(gate: f64, idle: f64, readout: f64) -> qclab_core::sim::trajectory::NoiseSpec {
    use qclab_core::sim::trajectory::{NoiseSpec, PauliChannel};
    NoiseSpec {
        after_gate: Some(PauliChannel::Depolarizing(gate)),
        idle: Some(PauliChannel::PhaseFlip(idle)),
        before_measure: Some(PauliChannel::BitFlip(readout)),
    }
}
