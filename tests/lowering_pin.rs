//! Lowering pin: the fused plans of the benchmark's checked-in circuits
//! and of one circuit of each generated harness shape, under the fusion
//! caps 2, 3 and 4 and the unfused and sparse options. Each plan is
//! described op by op — every fused block by the bits of its matrix —
//! and the description is stored as a digest, so a lowering change that
//! moves one ulp of one block fails here.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, ProgramOp};

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
        ("sparse", PlanOptions::sparse()),
    ]
}

/// `(circuit, options, digest of the plan's description)`.
const PINNED: &[(&str, &str, u64)] = &[
    ("grover2", "default", 0x27bfc889cd8ea24e),
    ("grover2", "cap3", 0x27bfc889cd8ea24e),
    ("grover2", "cap4", 0x27bfc889cd8ea24e),
    ("grover2", "unfused", 0xcd8fec0c4799dad5),
    ("grover2", "sparse", 0xcd8fec0c4799dad5),
    ("qec3", "default", 0x797007c1baa12e6b),
    ("qec3", "cap3", 0x8848fab8ef17c380),
    ("qec3", "cap4", 0x24940f8bfcc67306),
    ("qec3", "unfused", 0x3571d999b7318b4d),
    ("qec3", "sparse", 0x3571d999b7318b4d),
    ("qft16", "default", 0x1906213b1c926d9a),
    ("qft16", "cap3", 0xdbcfae1d5482875f),
    ("qft16", "cap4", 0x50bd80e653a25fca),
    ("qft16", "unfused", 0xdf2d62208c5a43da),
    ("qft16", "sparse", 0xdf2d62208c5a43da),
    ("rep25", "default", 0x88035446ed65f8eb),
    ("rep25", "cap3", 0x5dc8171df1ed04b6),
    ("rep25", "cap4", 0x976b90f96ee46dd1),
    ("rep25", "unfused", 0x88035446ed65f8eb),
    ("rep25", "sparse", 0x88035446ed65f8eb),
    ("teleport", "default", 0xf79db2247df4c802),
    ("teleport", "cap3", 0xa14504cc96a54840),
    ("teleport", "cap4", 0xa14504cc96a54840),
    ("teleport", "unfused", 0xc194693a5ce55613),
    ("teleport", "sparse", 0xc194693a5ce55613),
    ("layers20x8", "default", 0x089961659132a2e6),
    ("layers20x8", "cap3", 0x411d618bf543372e),
    ("layers20x8", "cap4", 0xc6852bfd3ef0324b),
    ("layers20x8", "unfused", 0x9e1af20bf4e13f18),
    ("layers20x8", "sparse", 0x9e1af20bf4e13f18),
    ("layers12x10", "default", 0xdc902e11a715e6e8),
    ("layers12x10", "cap3", 0x628b4b86143d18e9),
    ("layers12x10", "cap4", 0x40f5d39808840789),
    ("layers12x10", "unfused", 0xa27db6686314f34c),
    ("layers12x10", "sparse", 0xa27db6686314f34c),
    ("layers15x8", "default", 0x6b3c03ac295df11a),
    ("layers15x8", "cap3", 0x25d5154361a423e5),
    ("layers15x8", "cap4", 0x52047c23db9c4254),
    ("layers15x8", "unfused", 0x3e60908659f5c207),
    ("layers15x8", "sparse", 0x3e60908659f5c207),
    ("layers6x40", "default", 0x245cf4264e8ad26c),
    ("layers6x40", "cap3", 0xe9477c4454d8bbf1),
    ("layers6x40", "cap4", 0x98961f7209d66f79),
    ("layers6x40", "unfused", 0x80b104a246ef6ab5),
    ("layers6x40", "sparse", 0x80b104a246ef6ab5),
];

#[test]
fn fused_plans_are_bit_identical_to_the_recorded_digests() {
    let mut got = Vec::new();
    for (name, circuit) in circuits() {
        for (opt, options) in option_sets() {
            got.push((name.clone(), opt, digest(&describe(&circuit, &options))));
        }
    }
    let want: Vec<(String, &str, u64)> = PINNED
        .iter()
        .map(|&(name, opt, d)| (name.to_string(), opt, d))
        .collect();
    assert_eq!(got, want);
}
