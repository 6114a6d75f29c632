//! Lowering pin: the fused plans of the benchmark's checked-in circuits
//! and of one circuit of each generated harness shape, under the fusion
//! caps 2, 3 and 4 and the unfused options. Each plan is
//! described op by op — every fused block by the bits of its matrix —
//! and the description is stored as a digest in
//! `tests/golden/lowering_pin.txt`, so a lowering change that moves one
//! ulp of one block fails here.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, ProgramOp};
use qclab_testkit::golden;

/// SplitMix64 (Steele, Lea, Flood 2014): the generator the end-to-end
/// harness draws its circuits from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The harness's random layered circuit: per layer a rotation about a
/// random axis on every qubit, then CX or CZ on a random pairing; the
/// first `measured` qubits measured at the end.
fn random_layers(n: usize, layers: usize, measured: usize, seed: u64) -> String {
    let mut rng = SplitMix64(seed);
    let mut s =
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\ncreg c[{measured}];\n");
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..layers {
        for q in 0..n {
            let axis = ["rx", "ry", "rz"][rng.below(3) as usize];
            let angle = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
            s += &format!("{axis}({angle:.6}) q[{q}];\n");
        }
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for pair in order.chunks_exact(2) {
            let gate = ["cx", "cz"][rng.below(2) as usize];
            s += &format!("{gate} q[{}], q[{}];\n", pair[0], pair[1]);
        }
    }
    for q in 0..measured {
        s += &format!("measure q[{q}] -> c[{q}];\n");
    }
    s
}

/// FNV-1a over the description of a plan.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every op of the plan by kind, every fused block's matrix by its bits,
/// and the plan's statistics.
fn describe(circuit: &QCircuit, options: &PlanOptions) -> String {
    let plan = program::lower(circuit, options);
    let mut text = format!(
        "{:?}\n{:?}\n{:?}\n",
        plan.stats(),
        plan.shot_plan(),
        plan.prefix_map()
    );
    for op in plan.ops() {
        match op {
            ProgramOp::Gate(Gate::Custom {
                name,
                qubits,
                matrix,
            }) => {
                text += &format!("block {name} {qubits:?}");
                for z in matrix.as_slice() {
                    text += &format!(" {:016x}{:016x}", z.re.to_bits(), z.im.to_bits());
                }
                text += "\n";
            }
            other => text += &format!("{other:?}\n"),
        }
    }
    text += &format!("source {}\n", plan.source().len());
    text
}

fn circuits() -> Vec<(String, QCircuit)> {
    let mut out: Vec<(String, QCircuit)> = [
        (
            "grover2",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/grover2.qasm"
            )),
        ),
        (
            "qec3",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/qec3.qasm"
            )),
        ),
        (
            "qft16",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/qft16.qasm"
            )),
        ),
        (
            "rep25",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/rep25.qasm"
            )),
        ),
        (
            "teleport",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/teleport.qasm"
            )),
        ),
    ]
    .into_iter()
    .map(|(name, text)| (name.to_string(), qclab_qasm::from_qasm(text).unwrap()))
    .collect();
    for (n, layers, measured, seed) in [
        (20, 8, 20, 1),
        (12, 10, 12, 2),
        (15, 8, 4, 3),
        (6, 40, 6, 4),
    ] {
        let text = random_layers(n, layers, measured, seed);
        out.push((
            format!("layers{n}x{layers}"),
            qclab_qasm::from_qasm(&text).unwrap(),
        ));
    }
    out
}

fn option_sets() -> Vec<(&'static str, PlanOptions)> {
    let cap = |max_fused_qubits| PlanOptions {
        max_fused_qubits,
        ..PlanOptions::default()
    };
    vec![
        ("default", PlanOptions::default()),
        ("cap3", cap(3)),
        ("cap4", cap(4)),
        ("unfused", PlanOptions::unfused()),
    ]
}

/// `circuit options digest` per line: the digest of the plan's
/// description.
#[test]
fn fused_plans_are_bit_identical_to_the_recorded_digests() {
    let mut text = String::new();
    for (name, circuit) in circuits() {
        for (opt, options) in option_sets() {
            let d = digest(&describe(&circuit, &options));
            text += &format!("{name} {opt} {d:#018x}\n");
        }
    }
    golden!("lowering_pin", text);
}
